(** Cost-based query planner.

    The engine has three evaluation strategies; until now the choice was
    made by query {e shape} alone (flat additive queries took the
    max-score pruned path, everything else fell back to exhaustive
    DAAT).  This module makes the choice {e cost-based}: for each
    applicable plan it estimates the postings bytes and skip blocks the
    executor would decode, from per-record statistics that
    {!Postings.record_stats} reads out of headers and skip tables alone
    (df, block count, doc-region bytes, position-region bytes, tier,
    max_tf — never a doc-region decode), and picks the cheapest.

    The planner knows nothing about dictionaries, stores or epochs: the
    caller supplies a [stats_of] closure mapping a {e raw query term}
    to the statistics of its record (applying its own normalisation,
    stop-word dropping and fetch policy; [None] means the term
    contributes no postings).  This keeps the module a pure cost model
    below {!Infnet}, testable without an index.

    Estimates are deliberately coarse — upper-bound-flavoured counts of
    the bytes each executor is {e allowed} to touch — because they only
    need to rank plans, not predict latency.  The executors report
    actual bytes/blocks next to the estimate ({!Infnet.topk_stats}) so
    estimation error stays observable. *)

type plan =
  | Exhaustive  (** full DAAT over every leaf's whole record *)
  | Maxscore  (** additive max-score pruned top-k (flat shapes) *)
  | Intersect
      (** intersection-first: drive the rarest member's cursor and
          [cursor_seek] the others — multiplicative max-score bounds
          for [#and], exact position intersection for [#phrase] /
          [#od] / [#uw] *)

type choice =
  | Auto  (** pick the cheapest applicable plan *)
  | Forced of plan
      (** execute this plan; silently falls back to {!Exhaustive} when
          the plan does not apply to the query's shape (a forced plan
          never changes results, so the safe fallback is the oracle) *)

val plan_name : plan -> string
(** ["exhaustive"], ["maxscore"], ["intersect"] — stats / CLI labels. *)

val plan_of_string : string -> plan option
(** Inverse of {!plan_name}. *)

type shape =
  | Flat  (** {!flat} accepts it *)
  | Conjunctive  (** [#and] of bare terms *)
  | Positional  (** top-level [#phrase], [#od] or [#uw] *)
  | Other  (** anything else: only {!Exhaustive} applies *)

val flat : Query.t -> ((float * string) list * float) option
(** The one owner of the Flat rule: [Some (terms, norm)] iff the query
    scores as [(sum_i w_i * b_i) / norm] over bare terms — a bare term
    ([w = 1], [norm = 1]), [#sum] of terms ([w = 1], [norm] the child
    count) or [#wsum] of terms whose weights are all [>= 0] with a
    positive total ([norm] the total, summed in child order as the
    evaluators do).  The terms are raw, in child order.  A negative
    weight would give its leaf a negative upper bound, which no pruning
    bound can absorb, so such a [#wsum] is not flat and plans
    {!Exhaustive}.  {!Infnet.eval_topk}'s {!Maxscore} executor runs on
    exactly these terms and norm. *)

val shape_of : Query.t -> shape
(** The planner's shape classes: [Flat] when {!flat} accepts the query;
    [Conjunctive] and [Positional] are the shapes the {!Intersect}
    executors accept. *)

val applicable : Query.t -> plan list
(** The plans that can execute this query, cheapest-machinery first;
    always ends with {!Exhaustive}. *)

type estimate = {
  e_plan : plan;
  e_bytes : int;  (** estimated record bytes decoded (doc + position) *)
  e_blocks : int;  (** estimated skip blocks decoded (v1 records: 0) *)
}

val estimate :
  stats_of:(string -> Postings.record_stats option) ->
  k:int ->
  Query.t ->
  plan ->
  estimate
(** Cost of executing the query under the given plan.  Total: a plan
    that does not apply to the query's shape is costed as
    {!Exhaustive}, mirroring the {!Forced} fallback. *)

val decide :
  stats_of:(string -> Postings.record_stats option) ->
  k:int ->
  Query.t ->
  estimate
(** The cheapest applicable plan by estimated bytes; ties break toward
    the more aggressive executor ({!Maxscore}, then {!Intersect}, then
    {!Exhaustive}) since equal estimates mean the pruning machinery is
    free. *)
