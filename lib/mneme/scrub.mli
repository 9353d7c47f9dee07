(** Budgeted background scrubbing: find bit rot before a query does.

    A scrubber walks a store's flushed physical segments in a
    deterministic order (pools in registration order, segment ids
    ascending) and re-verifies each segment's CRC32 {e fresh from disk}
    — the same bypass-the-buffers read {!Check} uses, so a clean
    buffered copy cannot mask on-disk corruption.  The walk is
    incremental and resumable: each {!step} verifies segments only until
    an explicit I/O budget (segments and/or bytes) is exhausted, with
    every read charged to the store's {!Vfs} cost model, so foreground
    queries share the disk with a bounded scrub tax instead of an
    unbounded scan.

    Segments that fail verification accumulate in a deterministic
    {e repair worklist} ({!damages}); {!heal} closes the loop by
    fetching the segment's good bytes from a peer store's file (a
    healthy standby for a corrupt primary, or vice versa), verifying
    them against the recorded CRC32, and rewriting the segment in place
    via {!Store.repair_segment} — journaled, so a crash mid-heal is
    recoverable, and never applied on a checksum mismatch. *)

type damage = {
  pool : string;  (** owning pool's name *)
  pseg : int;  (** physical segment id within the pool *)
  off : int;  (** file offset of the segment's extent *)
  len : int;  (** extent length in bytes *)
  crc : int;  (** the CRC32 the on-disk bytes should have *)
}

type progress = {
  scanned : int;  (** segments verified so far in this pass *)
  scanned_bytes : int;  (** bytes re-read and checksummed so far *)
  total : int;  (** flushed segments in the pass *)
  complete : bool;  (** the walk has reached the end of the store *)
}

type t

val create : Store.t -> t
(** Snapshot the store's segment census and start a pass at the first
    segment.  The census is taken once: segments flushed after [create]
    are picked up by the next pass ({!restart}).  The scrub is
    epoch-transparent: every flushed segment is verified, whether it
    holds live, pinned or stranded objects. *)

val step : ?max_segments:int -> ?max_bytes:int -> t -> progress
(** Verify segments until a budget trips: at most [max_segments]
    segments, and stopping once [max_bytes] bytes have been read within
    this step (always verifying at least one segment, so every step
    makes progress).  Omitted budgets are unlimited — a single
    unbudgeted [step] scrubs the whole store.  A no-op once the pass is
    [complete].  Raises [Invalid_argument] on a non-positive budget. *)

val progress : t -> progress
(** Where the pass stands, without doing any I/O. *)

val damages : t -> damage list
(** The repair worklist: every segment that failed verification so far
    in this pass, in walk order. *)

val restart : t -> unit
(** Begin a fresh pass over the store's current segment census,
    clearing the worklist. *)

val run : Store.t -> damage list
(** One unbudgeted pass over a store: [create] + [step] to completion,
    returning the worklist. *)

val damage_of_segment : Store.t -> pool:string -> pseg:int -> damage option
(** Build the worklist entry for one known segment (e.g. one a query
    tripped over), without scanning anything.  [None] if the pool or a
    flushed segment by that id does not exist. *)

val verified_bytes : Vfs.t -> file:string -> damage -> bytes option
(** Read the damaged segment's extent from a peer copy of the store
    file on [vfs] and return the bytes only if they match the recorded
    CRC32 — [None] if the file is missing or short, or the peer's copy
    is itself rotten or stale. *)

val heal : Store.t -> sources:(string * Vfs.t) list -> damage -> (string, string) result
(** Repair one damaged segment from the first source whose copy
    verifies: [Ok name] names the source used; [Error] when no source
    holds a verified copy (the segment is untouched) or the damage
    record no longer matches the store's tables. *)
