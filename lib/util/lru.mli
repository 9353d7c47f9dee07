(** The one recency list under every cache tier but the buffer pool.

    A map with least-recently-used replacement under a {e cost} budget:
    every entry carries a cost, and inserting evicts from the cold end
    until the resident cost fits the capacity.  The simulated OS file
    cache in {!Vfs} charges each block 1, so its capacity counts blocks;
    the query-result cache ({!Core.Result_cache}) and the segment-frame
    cache ({!Block_cache}) charge bytes.  Both of those are thin facades
    over this list.

    The list keeps its own {!Cache_stats} counters: a {e reference} is
    one {!find}, a {e hit} one that found a live entry, an {e eviction}
    a removal forced by the budget, an {e invalidation} a removal asked
    for ({!find}'s stale purge, {!retain}, {!clear}).  Residency reports
    the entry count and the resident cost.  (The Mneme buffer manager
    has pins and the FIFO and Clock policies of the replacement
    ablation, and keeps its own list.)

    A [t] is single-domain. *)

type ('k, 'v) t

val create : capacity:int -> ('k, 'v) t
(** [capacity] bounds the resident cost; [0] disables the cache: {!add}
    drops every entry, so every probe misses.  Raises
    [Invalid_argument] if negative. *)

val find : ?stale:('v -> bool) -> ('k, 'v) t -> 'k -> 'v option
(** The counted probe: one reference, plus a hit when an entry is
    resident and not [stale] (default: never), which then becomes most
    recently used.  A [stale] entry is purged on sight, counted as an
    invalidation, and reported as a miss. *)

val mem : ('k, 'v) t -> 'k -> bool
(** Residency test; counts nothing and does not disturb recency. *)

val add : ('k, 'v) t -> 'k -> cost:int -> 'v -> unit
(** Insert as most recently used, replacing any entry under the same key
    (the replaced entry is not counted), then evict from the cold end
    until the resident cost fits the capacity.  An entry costing more
    than the capacity is itself evicted last.  Raises
    [Invalid_argument] if [cost] is negative. *)

val retain : ('k, 'v) t -> keep:('k -> 'v -> bool) -> int
(** Drop every entry that fails [keep]; returns how many were dropped,
    each counted as an invalidation. *)

val clear : ('k, 'v) t -> unit
(** Drop everything, counted as invalidations; the counters are kept. *)

val fold : ('k, 'v) t -> init:'a -> f:('a -> 'k -> 'v -> 'a) -> 'a
(** From most to least recently used; counts nothing. *)

val stats : ('k, 'v) t -> Cache_stats.t
(** The counters, with the resident entries and their total cost as
    [resident_entries] and [resident_bytes]. *)

val reset_stats : ('k, 'v) t -> unit
(** Zero the counters; residency is kept. *)
