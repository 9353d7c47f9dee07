(** Replica groups: journal shipping from a primary store to standbys.

    The ROADMAP's serving-scale concern: a single Mneme file on a single
    simulated disk cannot survive that disk.  A replica group keeps N
    {e standbys} — each a byte-level copy of the primary's data file on
    its own {!Vfs.t} (its own disk) — caught up by {e journal shipping}:
    every batch the primary's {!Journal} commits is streamed, as a
    sealed CRC32-bearing image of all its writes in the log's format,
    to each standby, which lands it in its own log, fsyncs (the
    standby's commit point), and replays it through the same
    CRC-verified recovery path a crashed primary would use.  A shipped
    batch that fails its CRC is rejected and the standby marked
    unhealthy — divergence is never applied silently.

    Standbys therefore hold, at every instant, a transaction-consistent
    prefix of the primary's history: exactly the batches whose commit
    point passed on the primary.  When the primary's device dies
    ({!Vfs.Crash}), {!promote} selects the most-caught-up healthy
    standby; opening its store yields byte-identical contents to a
    non-crashed primary at that standby's applied LSN.  The failover
    torture harness ({!Core.Torture}) proves this at every crash point.

    Shipping is synchronous and deterministic — this is a simulation of
    replication, not a concurrent implementation — which is what lets
    the torture harness enumerate crash points through it. *)

type t

type standby_info = {
  name : string;
  applied_lsn : int;  (** last batch applied (0 = bootstrap image only) *)
  lag : int;  (** primary LSN minus applied LSN *)
  healthy : bool;  (** false once a shipment was rejected *)
  paused : bool;
  reason : string option;
      (** [Some _] exactly when not [healthy]: internally a standby's
          health is one status field ([Healthy | Unhealthy of reason]),
          so an unhealthy standby can never lack its reason. *)
}

val attach : Store.t -> standbys:(string * Vfs.t) list -> t
(** [attach store ~standbys] builds a replica group around a store whose
    journal is enabled ([Invalid_argument] otherwise, or if a batch is
    open, or on duplicate standby names).  Each standby is bootstrapped
    with a durable copy of the primary data file's current contents on
    its own file system, then subscribed to the journal's commit
    stream. *)

val primary_lsn : t -> int
(** Batches committed by the primary since [attach]. *)

val info : t -> standby_info list
(** Per-standby status, in attach order. *)

val standby_vfs : t -> name:string -> Vfs.t
(** The standby's file system.  Raises [Not_found]. *)

val pause : t -> name:string -> unit
(** Stop applying shipments to this standby; they accumulate in order
    (the standby lags).  Raises [Not_found]. *)

val resume : t -> name:string -> unit
(** Drain the accumulated shipments in order and continue applying.
    Raises [Not_found]. *)

val resync : t -> name:string -> unit
(** Re-bootstrap a standby that fell out of the stream (rejected
    shipment, its own device trouble, a long pause): copy the primary
    data file afresh, drop any backlog, clear the unhealthy status and
    rejoin the commit stream at the primary's current LSN.  Raises
    [Not_found] for an unknown name and [Invalid_argument] if a batch
    is open on the primary. *)

val corrupt_next_shipment : t -> name:string -> unit
(** Test hook for transit corruption: flip one byte of the next batch
    image delivered to this standby.  The standby's CRC verification
    must reject it.  Raises [Not_found]. *)

val corrupt_next_transfer : t -> unit
(** Test hook for {!heal_segment} transit corruption: flip one byte of
    the next segment payload fetched from any source.  The transfer's
    CRC envelope must reject it and the heal must fall through to the
    next source. *)

val heal_segment : t -> store:Store.t -> pool:string -> pseg:int -> (string, string) result
(** Close the detect-to-repair loop for one damaged physical segment of
    the group's primary [store].  Sources are tried in order — the
    primary's own file first (heals standby-side rot), then each healthy
    standby (heals primary-side rot): the segment extent is fetched
    under a transit CRC envelope, verified against the segment's
    recorded CRC32 (a mismatched payload is {e never} applied), and
    applied with {!Store.repair_segment} on the primary — a journaled
    rewrite whose commit ships to every healthy standby, so one heal
    converges the whole group (rewriting already-good bytes is
    idempotent).  [Ok source] names the copy used; [Error] when no group
    member holds a verified copy, leaving every file untouched. *)

val promote : t -> standby_info * Vfs.t
(** The failover decision: the healthy standby with the highest applied
    LSN (ties broken by attach order).  Open the returned file system's
    copy of the data file with {!Store.open_existing} to serve from it.
    Raises [Failure] if no healthy standby exists. *)
