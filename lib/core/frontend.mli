(** Deadline-aware query frontend over a replica group.

    One retrieval engine per replica, each on its own simulated file
    system, serving the same index.  The frontend routes every record
    fetch through a per-replica circuit breaker, hedges a fetch to a
    second replica when the first stalls past a threshold, and enforces
    a per-query deadline on the simulated clock: when the deadline
    expires, the terms fetched so far are scored and the result is
    returned flagged {e degraded} — unfetched terms contribute only the
    default belief, exactly like salvage mode treats a quarantined
    term.

    All time is simulated.  A fetch's latency is the wall-clock delta
    of the serving replica's {!Vfs.Clock}; the frontend accumulates
    those deltas into its own logical clock ({!now_ms}), which also
    drives circuit-breaker cooldowns. *)

type breaker_state =
  | Closed  (** routing normally *)
  | Open  (** not routable until the cooldown elapses *)
  | Half_open  (** cooldown over: the next fetch is a probe *)

type replica_spec = {
  name : string;
  vfs : Vfs.t;  (** the replica's own file system (and clock) *)
  store : Index_store.t;  (** an index session opened on [vfs] *)
}

type t

type corrupt_event = {
  replica : string;  (** which replica's copy is damaged *)
  term : string;
  reason : string;  (** the [Corrupt] message *)
}

val create :
  replicas:replica_spec list ->
  dict:Inquery.Dictionary.t ->
  ?df_of:(Inquery.Dictionary.entry -> int) ->
  n_docs:int ->
  avg_doc_len:float ->
  doc_len:(int -> int) ->
  ?stopwords:Inquery.Stopwords.t ->
  ?stem:bool ->
  ?hedge_after_ms:float ->
  ?window:int ->
  ?trip_after:int ->
  ?cooldown_ms:float ->
  ?result_cache_bytes:int ->
  ?block_cache_bytes:int ->
  ?on_corrupt:(replica:string -> term:string -> reason:string -> unit) ->
  unit ->
  t
(** [df_of] overrides the df a term leaf scores with
    ({!Inquery.Infnet.eval_topk}): a doc-partitioned shard's frontend
    passes the global catalog's df so shard-local records rank with
    collection-wide statistics.  [n_docs], [avg_doc_len] and [doc_len]
    are likewise whatever statistics the beliefs should be computed
    under — a shard passes the {e global} values, not its slice's.

    [hedge_after_ms] (default 60): a fetch costing more than this is a
    {e stall}; if another replica's breaker is closed the fetch is
    hedged there, and the query perceives
    [min(stall cost, hedge_after + hedge cost)].  [window] (default 6)
    and [trip_after] (default 3): a replica's breaker opens when the
    last [window] outcomes contain [trip_after] stalls or failures.
    [cooldown_ms] (default 500) of frontend logical time later the
    breaker goes half-open and the next fetch probes the replica:
    success closes the breaker, another stall or failure re-opens it.
    [on_corrupt] fires once per (replica, term) whose fetch raised
    [Corrupt] — the hook a repair daemon subscribes to.

    [result_cache_bytes] and [block_cache_bytes] (both default 0 =
    disabled) size the frontend's two read-path caches: a
    {!Result_cache} of finished rankings keyed by the normalised query
    (see {!run_query}), and a {!Util.Block_cache} shared across queries
    and replicas.  The block cache holds, as {e frames}, the
    CRC-verified Mneme segments the replicas' stores read: [create]
    attaches it to every replica's store session
    ({!Index_store.t.attach_frames}), so [block_cache_bytes] bounds the
    frames alone, in one LRU, and each fetched byte is cached once.
    Cursors decode postings from the record bytes on every query;
    nothing decoded is cached.  A store session serves one frontend's
    budget: a second frontend created over the same session takes it
    over, and the first's frames of it go cold.  A record whose segment
    is resident skips the fetch — replica routing, breakers and the
    file system.  Raises [Invalid_argument] on an empty or
    duplicate-name replica list, or nonsensical knobs. *)

val of_prepared :
  ?buffers:Buffer_sizing.t ->
  ?hedge_after_ms:float ->
  ?window:int ->
  ?trip_after:int ->
  ?cooldown_ms:float ->
  ?result_cache_bytes:int ->
  ?block_cache_bytes:int ->
  ?on_corrupt:(replica:string -> term:string -> reason:string -> unit) ->
  Experiment.prepared ->
  names:string list ->
  t
(** Build a replica group from a prepared experiment: each name gets a
    fresh file system holding a byte copy of the Mneme index, a cold OS
    cache, and its own buffer session ([buffers] defaults to the
    Table 2 heuristics). *)

val replica_names : t -> string list
val replica_vfs : t -> name:string -> Vfs.t
(** Raises [Not_found] for an unknown name — use it to aim fault plans
    at one replica. *)

val corrupt_fetches : t -> corrupt_event list
(** The frontend's read-repair worklist: every (replica, term) whose
    fetch raised [Corrupt], oldest first, deduplicated.  While an entry
    is outstanding, the term's fetches are served by hedging to a
    healthy replica (a corrupt fetch counts against the sick replica's
    breaker, so repeated damage routes traffic away entirely). *)

val mark_repaired : t -> replica:string -> term:string -> bool
(** Clear a worklist entry after the replica's copy has been healed
    (e.g. via {!Mneme.Scrub.heal} against that replica's file); a later
    corrupt fetch of the same (replica, term) is reported anew.
    [false] if no such entry was outstanding. *)

val breaker : t -> name:string -> breaker_state
val preferred : t -> string
(** The replica the next fetch would route to — a half-open replica
    awaiting its probe, else the first closed one in attach order (the
    first replica when every breaker is open). *)

val now_ms : t -> float
(** The frontend's logical clock: accumulated perceived fetch latency
    plus engine CPU across all queries (and any {!tick}s). *)

val tick : t -> float -> unit
(** Advance the logical clock without doing work — lets cooldowns
    elapse during idle periods.  Raises [Invalid_argument] on a
    negative amount. *)

type result = {
  ranked : Inquery.Ranking.ranked list;
  degraded : bool;
      (** some term was skipped (deadline, no routable replica) or
          failed (corrupt / crashed on every tried replica) *)
  deadline_hit : bool;
  skipped_terms : string list;  (** in first-skip order *)
  failed_terms : (string * string) list;  (** [(term, reason)] *)
  hedged_fetches : int;
  served_by : string;
      (** replica that served the most fetches; the replica the query
          was routed to when it fetched nothing (a result-cache hit, or
          every record resident or out of vocabulary) *)
  epoch : int;  (** published epoch of the serving replica's store *)
  elapsed_ms : float;
      (** perceived query latency, CPU included; the CPU is charged to
          [served_by]'s clock *)
  postings_decoded : int;
      (** postings the evaluator's cursors actually decoded — the
          scatter-gather bench's per-shard work measure *)
  cached : bool;
      (** served whole from the result cache: no fetch, no decode, no
          scoring happened *)
}

val run_query :
  ?top_k:int ->
  ?deadline_ms:float ->
  ?floor:float ->
  ?plan:Inquery.Planner.choice ->
  t ->
  Inquery.Query.t ->
  result
(** Evaluate one parsed query with the cost-planned top-k evaluator
    ({!Inquery.Infnet.eval_topk}): the planner picks the cheapest
    applicable executor (max-score, intersection-first, exhaustive)
    from header statistics; [plan] forces one ({!Inquery.Planner.Auto}
    by default).  Results are bit-identical to the exhaustive ranking's
    first [top_k] whatever the plan, which is why the result cache's
    key stays plan-independent: a ranking computed under any plan may
    be replayed for any other.

    With [deadline_ms], the deadline is checked before every record
    fetch {e and} between candidate documents during evaluation (accrued
    scoring CPU is priced against the budget), so a degraded result
    overshoots the deadline by at most the cost of the fetch in flight
    when it expired.  Evidence already fetched when the deadline fires
    is still ranked.  The deadline counts physical fetches only: with
    the block cache on, each record is first asked of the replicas'
    {!Index_store.t.fetch_resident} (the routed replica first), and a
    record whose segment is resident — a frame, or the buffered copy —
    is read from memory with no routing, no breaker outcome and no
    simulated time, so it is used even after the deadline has passed.
    Only terms that still need a physical fetch are skipped, and only
    those make the result degraded.  Raises [Invalid_argument] on a
    non-positive deadline.

    {b The overshoot bound is per frontend instance.}  When this
    frontend is one shard of a scatter-gather group, the bound holds
    {e per shard}, not merely per replica: a fetch is raced against the
    deadline before it is issued, and evaluation deadline checks run
    between candidate documents, so one stalled shard holds its own
    (and therefore the merged) response past the deadline by at most
    one in-flight fetch plus the CPU of ranking the evidence already
    paid for.  {!Shard.run_query} inherits the bound because the
    scatter's perceived latency is the maximum over per-shard
    latencies.  Tested in [test_shard.ml]
    ("stalled shard cannot block the merge").

    [floor] seeds the evaluator's pruning threshold with an externally
    known kth score (the coordinator's global bound); the result is
    then the top-k among documents scoring {e strictly above} the
    floor, ties at the floor included.  See
    {!Inquery.Infnet.eval_topk}.

    {b Caching.}  With a result cache enabled, the query is first
    normalised to a canonical key — terms stemmed and stop-filtered the
    way evaluation would, re-printed in canonical syntax, [top_k]
    appended — and probed under the epoch the routed replica serves.  A
    hit is returned immediately with [cached = true]: zero fetches, zero
    decodes, zero simulated latency.  On a miss a complete ranking is
    inserted under the epoch it was computed at; a degraded one is not
    inserted at all, so a deadline-clipped ranking is recomputed, not
    replayed, and a stalled replica cannot smuggle a blown budget into
    the cache (see the [Vfs.Fault.Stall] regression test).  Floored
    queries bypass the cache entirely (the floor changes the answer).
    The block cache needs no such care: it changes which segments are
    re-read, never what any query answers.
    A segment becomes a frame only after it passes its CRC32 check, so
    a [Corrupt] read never enters it and the next query reads that
    segment from the device again, while a hedged read leaves the
    healthy replica's segment as a frame that serves the next query. *)

val run_query_string :
  ?top_k:int ->
  ?deadline_ms:float ->
  ?floor:float ->
  ?plan:Inquery.Planner.choice ->
  t ->
  string ->
  result
(** Parse and evaluate.  Raises [Invalid_argument] on syntax errors. *)

(** {2 Cache tiers} *)

val cache_tiers : t -> (string * Util.Cache_stats.t) list
(** Per-tier counters, top down: [("result", …)] when the result cache
    is enabled; [("frame", …)] (verified segments, probed after a
    buffer miss) when the block cache is; then [("buffer", …)] — the
    replica buffer pools merged with {!Util.Cache_stats.merge}.
    The Table-6-style tier report of [repro cache]. *)

val retain_cached_epochs : t -> keep:(int -> bool) -> int
(** Drop every result-cache entry and segment frame whose epoch fails
    [keep]; returns how many entries were dropped.  The target of an
    epoch-publication or post-GC hook ({!Live_index.on_publish}): pass
    a predicate keeping the live epoch and any pinned ones. *)

val cached_epochs : t -> int list
(** Distinct epochs tagging entries in either cache, ascending. *)
