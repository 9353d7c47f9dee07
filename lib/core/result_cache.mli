(** Query-result cache: the top tier of the read-path ladder, a facade
    over {!Util.Lru}.

    Maps a {e canonical query key} — the caller's normalised rendering
    of (query, k, evaluation preset) — to a finished ranking, under a
    byte budget with LRU replacement.  A hit answers the query without
    touching the dictionary, the store, or the evaluator at all.  Only
    complete answers are inserted: a degraded ranking (deadline-clipped,
    missing terms or shards) is never cached.

    {b Epoch coherence.}  Every entry is tagged with the index epoch it
    was computed under.  {!find} takes the epoch the caller is serving
    and treats any mismatch as a miss {e and} purges the stale entry on
    the spot (counted as an invalidation): results computed under a
    superseded epoch can never be served once the index has moved on,
    and a publication automatically ages out the whole cache without an
    explicit flush.  {!retain} additionally lets the epoch-publication
    hook drop stale entries eagerly, and after garbage collection
    {!epochs} verifies no entry survives under a collected epoch.

    Values are polymorphic; the caller supplies each entry's budget
    charge, since the cache cannot size arbitrary ['a].  Recency,
    eviction and the {!Util.Cache_stats.t} counters are {!Util.Lru}'s.
    Like the other tiers, a [t] is single-domain. *)

type 'a t

val create : capacity_bytes:int -> 'a t
(** [0] disables the cache ({!insert} drops, so every probe misses).
    Raises [Invalid_argument] if negative. *)

val find : 'a t -> key:string -> epoch:int -> 'a option
(** Probe for an entry computed at exactly [epoch].  Counts one
    reference; a hit refreshes recency.  An entry under any other epoch
    is purged (one invalidation) and reported as a miss. *)

val insert : 'a t -> key:string -> epoch:int -> cost:int -> 'a -> unit
(** Insert (replacing any entry under the same key) and evict from the
    LRU tail until the budget holds.  [cost] is the entry's byte charge;
    raises [Invalid_argument] if negative. *)

val retain : 'a t -> keep:(int -> bool) -> int
(** Drop every entry whose epoch fails [keep]; returns how many were
    dropped (counted as invalidations, not evictions).  The
    epoch-publication hook calls this with [keep = (fun e -> e = live)]
    or a pinned-epoch predicate after GC. *)

val epochs : 'a t -> int list
(** Distinct epochs tagging resident entries, ascending — the torture
    harness checks no collected epoch lingers here. *)

val stats : 'a t -> Util.Cache_stats.t
