(** Bayesian inference network query evaluation.

    INQUERY ranks documents by combining evidence in an inference
    network (Turtle & Croft, 1991).  Evaluation is {e term-at-a-time}:
    the complete record for one term is read, its evidence merged into
    per-document belief accumulators, then the next term is processed.

    Term belief for a document uses the INQUERY estimator

    {v bel = 0.4 + 0.6 * tf_w * idf_w
       tf_w  = tf / (tf + 0.5 + 1.5 * dl / avg_dl)
       idf_w = log((N + 0.5) / df) / log(N + 1) v}

    with default belief 0.4 for documents lacking the term.  Operators
    combine beliefs per the inference network: [#and] multiplies,
    [#or] is 1 - prod(1 - b), [#not] complements, [#sum]/[#wsum]
    average, [#max] takes the maximum.  [#phrase] builds a synthetic
    term from exact-adjacency matches using token positions.

    The evaluator is storage-agnostic: records arrive through a
    {!source} callback, so the same engine runs over the B-tree or the
    Mneme backend.  It reports the event counts the cost model charges
    (postings scored, nodes visited, record lookups). *)

type source = {
  fetch : Dictionary.entry -> bytes option;
      (** Retrieve the inverted record for a dictionary entry.  Counted
          as one record lookup per call. *)
  n_docs : int;
  max_doc_id : int;
  avg_doc_len : float;
  doc_len : int -> int;
}

type stats = {
  mutable postings_scored : int;
  mutable nodes_visited : int;
  mutable record_lookups : int;
}

val default_belief : float
(** 0.4 *)

val eval :
  source ->
  Dictionary.t ->
  ?df_of:(Dictionary.entry -> int) ->
  ?stopwords:Stopwords.t ->
  ?stem:bool ->
  Query.t ->
  float array * stats
(** [eval source dict query] returns per-document beliefs (indexed by
    document id, length [max_doc_id + 1]) and the event counts.  Query
    terms are optionally stemmed and stop-filtered before dictionary
    lookup; out-of-vocabulary terms contribute the default belief and
    no record lookup.

    [df_of] overrides the document frequency a term leaf scores with
    (default: the fetched record's own header df).  A doc-partitioned
    shard passes the {e global} df here so its per-document beliefs are
    bit-identical to the unsharded index; positional leaves
    ([#phrase]/[#od]/[#uw]/[#syn]) always use their match count and are
    unaffected. *)

type scored = { doc : int; belief : float }

val eval_daat :
  source ->
  Dictionary.t ->
  ?df_of:(Dictionary.entry -> int) ->
  ?stopwords:Stopwords.t ->
  ?stem:bool ->
  Query.t ->
  scored list * stats
(** Document-at-a-time evaluation — the alternative the paper sketches:
    "A 'document-at-a-time' approach, which gathered all of the evidence
    for one document before proceeding to the next, might scale better
    to large collections."  All query records are opened as cursors and
    documents are scored in ascending id order, so memory is bounded by
    the query's postings rather than by a belief array over the whole
    collection.

    Returns only documents that contain at least one query term and
    whose combined belief exceeds the query's no-evidence baseline (the
    belief a document matching nothing would get) — identical to
    [eval]'s beliefs on those documents (tested), except that
    pure-negation evidence ([#not] raising belief of documents that
    merely {e lack} a term) is not enumerated. *)

type topk_stats = {
  tk_plan : Planner.plan;  (** The plan that actually executed. *)
  tk_pruned : bool;
      (** A pruning executor ran ([tk_plan <> Exhaustive]). *)
  tk_postings_total : int;
      (** Postings carried by the records the query opened (cursor dfs
          on the pruned plans; header dfs per leaf occurrence on the
          exhaustive plan). *)
  tk_postings_decoded : int;  (** Postings actually decoded. *)
  tk_blocks_skipped : int;  (** Skip blocks jumped without decoding. *)
  tk_seeks : int;  (** Cursor seeks that had to move. *)
  tk_bytes_read : int;
      (** Record bytes actually decoded: decoded doc-region blocks
          plus position bytes walked (the exhaustive plan charges each
          opened record's doc region, plus its position region on
          position-matching leaves). *)
  tk_blocks_read : int;
      (** Skip blocks decoded (exhaustive plan: every block of every
          opened v2 record). *)
  tk_est_bytes : int;
      (** The planner's pre-execution byte estimate for the executed
          plan — compare with [tk_bytes_read] for estimation error. *)
  tk_est_blocks : int;  (** Likewise for blocks. *)
  tk_stopped : bool;  (** [should_stop] cut evaluation short. *)
}

exception Audit_mismatch of string

val eval_topk :
  source ->
  Dictionary.t ->
  ?df_of:(Dictionary.entry -> int) ->
  ?floor:float ->
  ?stopwords:Stopwords.t ->
  ?stem:bool ->
  ?audit:bool ->
  ?plan:Planner.choice ->
  ?should_stop:(stats -> bool) ->
  k:int ->
  Query.t ->
  scored list * stats * topk_stats
(** Cost-planned top-k document-at-a-time evaluation.

    The {!Planner} prices every applicable plan from the query records'
    header statistics (at most one memoized fetch per entry — planning
    adds no store reads) and the cheapest one executes:

    - {e Maxscore}, for the queries {!Planner.flat} accepts (a bare
      term, [#sum] of terms, [#wsum] of terms with non-negative
      weights), and {e Intersect} for [#and] of terms, run one
      essential-set driver with two combiners: [Add norm] folds
      [(sum_i w_i * b_i) / norm], [Mul] folds [prod_i b_i].  Both are
      monotone in every leaf's belief, so one bound serves both.  Leaves
      are sorted by their belief cap (from [df] and the v2 [max_tf]
      header alone); the frontier is driven over the {e essential}
      prefix — a document containing none of those leaves cannot beat
      the current k-th score — and the rest are probed via
      {!Postings.cursor_seek} only while the candidate's partial score
      and the remaining per-document caps beat the threshold.
      Whole skip blocks of non-essential leaves are never decoded.  For
      [#and] this shrinks the essential set toward the rarest member,
      i.e. an intersection-first scan.  A [#wsum] with a negative weight
      is not flat (its leaf's cap would be negative, which no bound
      absorbs) and plans {e Exhaustive}.
    - {e Intersect} for top-level [#phrase]/[#od]/[#uw]: these are hard
      conjunctions, evaluated by leapfrog intersection driven from the
      rarest member with position bytes decoded lazily, only for
      co-occurring documents.
    - {e Exhaustive}, for every other shape ([#or], [#not], nested
      operators, …) and whenever it prices no worse: full
      {!eval_daat} plus bounded top-k selection ([tk_pruned = false]).

    Whatever the plan, returned beliefs are bit-identical to taking the
    first [k] of {!eval_daat}'s results sorted by belief descending
    (doc ascending on ties): surviving candidates are rescored by the
    same fold in the same order, and pruning thresholds carry a
    conservative floating-point margin.

    Every plan charges a posting to [postings_scored] at most once, as
    the exhaustive plan does: the essential-set driver charges a leaf's
    posting only when a surviving candidate is rescored, never for the
    partial scores that decide pruning, so a planned run never charges
    more than the exhaustive one.

    @param df_of override the df a term leaf scores with, as in {!eval}
    (the sharding hook: global statistics over local records).
    @param floor seed the pruning threshold with an externally known
    kth score (the scatter-gather coordinator's current global bound):
    documents that cannot {e strictly} beat [floor] may be pruned on
    the Maxscore and [#and]-Intersect paths, so the result is the top-k
    among documents scoring above it — ties at the floor survive.  The
    exhaustive and positional-intersect executors ignore it and return
    a superset; callers filter at merge.  Raises [Invalid_argument] if
    combined with [audit] (the oracle has no floor) or not finite.
    @param audit re-run the exhaustive evaluator and raise
    {!Audit_mismatch} if the executed plan's ranking diverges (docs or
    beliefs) — any plan, including a forced one.
    @param plan {!Planner.Auto} (default) picks the cheapest applicable
    plan; [Forced p] executes [p], falling back to the exhaustive plan
    when [p] does not apply to the query's shape.  Plan choice never
    changes results, only the bytes touched.
    @param should_stop polled once per candidate document (i.e. between
    postings blocks, not between whole terms), with the evaluation
    counters accrued so far — the same counters the caller charges
    afterwards, so a deadline is priced from exactly what the final
    charge will be; when it fires, evaluation stops and the heap
    contents so far are returned with [tk_stopped = true].

    Records are fetched through [source.fetch], once per entry per
    query, and every cursor decodes its blocks from the fetched bytes:
    caching those bytes is the source's business (a serving frontend
    reads warm ones from Mneme segment frames). *)
