(** Query-result cache: the top tier of the read-path ladder.

    Maps a {e canonical query key} — the caller's normalised rendering
    of (query, k, evaluation preset) — to a finished ranking, under a
    byte budget with LRU replacement.  A hit answers the query without
    touching the dictionary, the store, or the evaluator at all.

    {b Epoch coherence.}  Every entry is tagged with the index epoch it
    was computed under.  {!find} takes the epoch the caller is serving
    and treats any mismatch as a miss {e and} purges the stale entry on
    the spot (counted as an invalidation): results computed under a
    superseded epoch can never be served once the index has moved on,
    and a publication automatically ages out the whole cache without an
    explicit flush.  {!retain} additionally lets the epoch-publication
    hook drop stale entries eagerly, and after garbage collection
    {!epochs} verifies no entry survives under a collected epoch.

    {b Coverage.}  Entries record whether the ranking covered the whole
    index ({!Full}) or was degraded — deadline-clipped, missing terms,
    or missing shards ({!Partial}).  {!find} serves only [Full] entries;
    a cached partial is never served as a full answer.  ({!find_any}
    exposes partials for callers that can legitimately re-serve a
    degraded answer as degraded.)

    Values are polymorphic; the caller supplies each entry's budget
    charge, since the cache cannot size arbitrary ['a].

    Statistics are the unified {!Util.Cache_stats.t}, so the tier report
    merges this cache with the segment-frame cache and the buffer pool
    in one fold.  Like the other tiers, a [t] is single-domain. *)

type coverage =
  | Full  (** complete answer over the whole index at the entry's epoch *)
  | Partial  (** degraded: never served by {!find} *)

type 'a t

val create : ?capacity_bytes:int -> name:string -> unit -> 'a t
(** [capacity_bytes] defaults to 1 MiB; 0 disables the cache ({!insert}
    becomes a no-op, so every probe misses).  Raises [Invalid_argument]
    if negative. *)

val name : 'a t -> string
val capacity : 'a t -> int

val length : 'a t -> int
(** Resident entries. *)

val find : 'a t -> key:string -> epoch:int -> 'a option
(** Probe for a [Full] entry computed at exactly [epoch].  Counts one
    reference; a hit refreshes recency.  An entry under any other epoch
    is purged (one invalidation) and reported as a miss. *)

val find_any : 'a t -> key:string -> epoch:int -> ('a * coverage) option
(** Like {!find} but also returns [Partial] entries, with their
    coverage, for callers serving degraded answers as degraded. *)

val insert : 'a t -> key:string -> epoch:int -> coverage:coverage -> cost:int -> 'a -> unit
(** Insert (replacing any entry under the same key) and evict from the
    LRU tail until the budget holds.  [cost] is the entry's byte charge;
    raises [Invalid_argument] if negative. *)

val retain : 'a t -> keep:(int -> bool) -> int
(** Drop every entry whose epoch fails [keep]; returns how many were
    dropped (counted as invalidations, not evictions).  The
    epoch-publication hook calls this with [keep = (fun e -> e = live)]
    or a pinned-epoch predicate after GC. *)

val clear : 'a t -> unit
(** Drop everything (all counted as invalidations); statistics are
    kept. *)

val epochs : 'a t -> int list
(** Distinct epochs tagging resident entries, ascending — the torture
    harness checks no collected epoch lingers here. *)

val stats : 'a t -> Util.Cache_stats.t
val reset_stats : 'a t -> unit
