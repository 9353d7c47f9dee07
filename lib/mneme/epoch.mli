(** Epoch-versioned roots and pinned-epoch garbage collection.

    The partial-persistence discipline for a live Mneme index: writers
    never overwrite a live object — every mutation writes {e new}
    objects and publishes a new {e epoch} whose sealed root names the
    complete object directory for that version.  Readers {!pin} an
    epoch and keep fetching its objects untouched no matter how much
    mutation happens after; objects made stale by later epochs are
    reclaimed only when no pinned epoch can still reach them.

    Two independent pieces live here:

    - the {e root envelope} ({!seal}/{!unseal}): a CRC32-sealed wrapper
      for the root payload, so a torn or bit-flipped root is detected
      as corruption rather than parsed — the envelope, written inside
      one journal commit, is the root-switch commit point;
    - the {e pin/GC manager} ({!t}): in-memory lifetime intervals
      [birth, death) per object, a multiset of pinned epochs, and a
      collector that reclaims exactly the stale objects no pin can
      reach.  The manager is session state — it is rebuilt on reopen
      from the surviving root (everything not named by the root is
      stale by definition). *)

(** {1 The sealed root envelope} *)

val seal : epoch:int -> bytes -> bytes
(** [seal ~epoch payload] wraps [payload] as a root for [epoch]:
    magic, epoch, length, payload, CRC32 over everything preceding.
    Raises [Invalid_argument] if [epoch] is negative or exceeds 32
    bits. *)

val unseal : bytes -> (int * bytes, string) result
(** Open an envelope, verifying magic, length and CRC32.  Returns the
    epoch and the payload, or a diagnosis of how the root is torn. *)

val is_sealed : bytes -> bool
(** Whether the bytes begin with the envelope's magic: a root of some
    epoch — the latest, or one a pinned reader still holds — rather
    than an application payload.  Says nothing about whether it
    {!unseal}s. *)

(** {1 The pin/GC manager} *)

type t

type pin
(** A reader's claim on one epoch.  Release exactly once. *)

type gc_stats = {
  reclaimed_objects : int;
  reclaimed_bytes : int;
  retained_objects : int;  (** stale but reachable from a pinned epoch *)
  retained_bytes : int;
}

val create : epoch:int -> t
(** A manager whose latest published epoch is [epoch] (the header epoch
    of the store being served). *)

val latest : t -> int

(** {2 Writer protocol}

    Between two publishes the writer notes every object that enters
    ([born]) or leaves ([retired]) the directory; {!publish} then turns
    the notes into lifetime intervals: born objects live from the new
    epoch, retired ones stop being visible at it. *)

val born : t -> oid:Oid.t -> size:int -> unit
(** A freshly allocated object that the {e next} published epoch will
    reference.  Raises [Invalid_argument] if the oid is already live. *)

val adopt : t -> oid:Oid.t -> size:int -> unit
(** An object that predates this manager (wrapping an existing store,
    or reopening from a root): live, with its birth treated as epoch 0
    so any pin taken before its retirement protects it. *)

val adopt_stale : t -> oid:Oid.t -> size:int -> unit
(** An object found in the store but referenced by no surviving epoch
    (an orphan left by earlier epochs of a crashed session): stale and
    immediately reclaimable. *)

val retired : t -> oid:Oid.t -> unit
(** The object leaves the directory at the next publish.  Stays
    fetchable by pins on epochs that could see it.  Raises
    [Invalid_argument] if the oid is not live. *)

val publish : t -> int
(** Seal the current mutation window: the new latest epoch (old + 1).
    Call {e after} the root switch committed — a crash beforehand
    recovers to the previous epoch and the notes die with the
    session. *)

(** {2 Reader protocol} *)

val pin : t -> pin
(** Pin the latest epoch. *)

val pin_epoch : pin -> int

val release : t -> pin -> unit
(** Raises [Invalid_argument] on double release. *)

val pinned : t -> int list
(** Pinned epochs, ascending, with multiplicity. *)

(** {2 Collection} *)

val collect : t -> reclaim:(oid:Oid.t -> size:int -> unit) -> gc_stats
(** Reclaim every stale object whose lifetime [birth, death) contains
    no pinned epoch and whose retirement is published ([death <=
    latest]) — [reclaim] is called once per object (typically
    {!Store.delete}, folding the bytes into {!Store.wasted_bytes}).
    Objects still reachable from a pin are retained and reported. *)

val live_objects : t -> int
val stale_objects : t -> int

val stranded_bytes : t -> int
(** Bytes held by stale-but-unreclaimed objects.  Returns to zero after
    a {!collect} with no pins outstanding. *)
