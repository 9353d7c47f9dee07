(** Extensible buffer management.

    A buffer holds resident physical segments for the pools attached to
    it, within a byte budget.  Replacement is pluggable — the paper's
    configuration is LRU per pool plus a {e reservation} optimisation:
    before a query runs, objects named by the query tree that are
    already resident are pinned, "potentially avoiding a bad replacement
    choice".  FIFO and Clock policies are provided for the
    replacement-policy ablation.

    A buffer with capacity 0 is {e transient}: every fault loads the
    segment, hands it to the caller, and retains nothing — this is the
    paper's "Mneme, no cache" configuration, where no inverted-list data
    is cached across record accesses (the simulated OS file cache
    underneath still works, exactly as in the paper).

    Hit statistics are reported per buffer exactly as in the paper's
    Table 6: one {e reference} per fault, a {e hit} when the segment was
    already resident.  The record is the unified {!Util.Cache_stats.t}
    shared by every cache layer (buffer pool, segment-frame cache,
    query-result cache), so per-layer reports merge with one fold.

    {b Domain-safety contract.}  A buffer is {e not} internally
    synchronised: all operations on one [t] must come from a single
    domain.  The multicore query executor ({!Core.Parallel}) therefore
    gives each worker domain its own buffer session over its own
    read-only store image — no lock on the fault path — and merges the
    per-session counters afterwards with {!Util.Cache_stats.merge},
    which restores the single-session Table 6 totals exactly (references
    and hits are plain sums; residency is whatever each session held at
    merge time). *)

type policy = Lru | Fifo | Clock

type t

val create : name:string -> capacity:int -> ?policy:policy -> unit -> t
(** [capacity] is in bytes; 0 means transient.  Raises
    [Invalid_argument] if negative. *)

val name : t -> string
val capacity : t -> int
val policy : t -> policy

val set_capacity : t -> int -> unit
(** Change the byte budget, then evict from the cold end (by the
    buffer's policy, skipping pinned segments) until it holds — or until
    only pinned segments are left, which stay.  Evictions are counted as
    on a fault; references and hits are not touched.  0 makes the buffer
    transient.  {!Core.Live_index} sizes its pools this way at every
    epoch publication.  Raises [Invalid_argument] if negative. *)

val fault : t -> pseg:int -> load:(unit -> bytes) -> bytes
(** [fault t ~pseg ~load] returns the segment's bytes, calling [load]
    (which performs the file read) on a miss.  Counts one reference, and
    a hit if resident.  On a miss the segment is inserted and victims
    are evicted (skipping pinned segments) until the budget holds; when
    every other segment is pinned, the incoming segment itself is the
    victim, so pinned bytes are never displaced. *)

val resident : t -> pseg:int -> bool
(** Residency test; does not count a reference or disturb recency. *)

val pin : t -> pseg:int -> bool
(** Pin if resident; returns whether it was.  Pins nest. *)

val unpin : t -> pseg:int -> unit
(** Raises [Invalid_argument] if the segment is not resident or not
    pinned. *)

val pinned_segments : t -> int list
(** Resident segments with at least one pin, ascending — a correct
    engine leaves this empty between queries (reservations must not
    leak, even when evaluation raises).  Costs O(pinned), not
    O(resident): the common empty answer is free no matter how full the
    buffer is. *)

val resident_segments : t -> int list
(** Resident segments in replacement order, from the front (under LRU
    the most recently used) to the eviction end.  Costs O(resident); for
    tests and diagnostics. *)

val update : t -> pseg:int -> bytes -> unit
(** Replace the resident copy after a write-through modification; no-op
    if not resident. *)

val drop : t -> pseg:int -> unit
(** Invalidate a segment (after relocation); no-op if absent. *)

val clear : t -> unit
(** Evict everything, pinned included; statistics are kept. *)

val stats : t -> Util.Cache_stats.t
(** Invalidations are {!drop}ped or {!clear}ed segments. *)

val reset_stats : t -> unit
