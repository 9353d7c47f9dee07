(** The integrated retrieval engine: INQUERY's inference network on top
    of a pluggable {!Index_store}.

    Each query is processed the way the paper describes: the query tree
    is parsed, scanned for terms whose records are already resident
    (which are {e reserved} for the duration), evaluated term-at-a-time,
    ranked, and released.  The engine charges its simulated CPU (per
    posting scored and per query node) to the {!Vfs} clock so that
    "user CPU" and "system + I/O" components can be separated exactly as
    the paper's Tables 3 and 4 do. *)

type t

type result = {
  ranked : Inquery.Ranking.ranked list;
  postings_scored : int;
  nodes_visited : int;
  record_lookups : int;
}

val create :
  vfs:Vfs.t ->
  store:Index_store.t ->
  dict:Inquery.Dictionary.t ->
  n_docs:int ->
  ?max_doc_id:int ->
  avg_doc_len:float ->
  doc_len:(int -> int) ->
  ?stopwords:Inquery.Stopwords.t ->
  ?stem:bool ->
  ?reserve:bool ->
  ?salvage:bool ->
  unit ->
  t
(** [max_doc_id] (default [n_docs - 1]) bounds the document id space;
    pass it explicitly when ids are sparse — e.g. a {!Live_index}
    after deletions, where live ids range past the document count.
    [reserve] (default true) controls the paper's query-tree reservation
    scan; the ablation harness turns it off to measure its value.
    [salvage] (default true) keeps the engine answering when a record's
    segment fails its CRC32: the term is {e quarantined} (treated as
    not indexed, reported via {!quarantined}) instead of the query
    aborting with [Mneme.Store.Corrupt]. *)

val store : t -> Index_store.t

val epoch : t -> int
(** The published epoch the engine's session serves
    ({!Index_store.t.epoch}; 0 for backends without epoch
    versioning). *)

val quarantined : t -> (string * string) list
(** [(term, reason)] for every term whose inverted list is {e currently}
    quarantined by salvage mode, oldest first.  Empty when every fetch
    has been clean (or every quarantine has been healed).  A quarantined
    term's fetches short-circuit to [None] without touching the store —
    the query pays for the corrupt segment once, not on every
    evaluation. *)

type repair_ticket = {
  term : string;
  reason : string;  (** the [Corrupt] message *)
  entry : Inquery.Dictionary.entry;  (** dictionary entry whose locator names the record *)
}

val pending_repairs : t -> repair_ticket list
(** The read-repair worklist: one ticket per currently-quarantined term,
    oldest first. *)

val mark_healed : t -> term:string -> bool
(** Lift a term's quarantine after its segment has been repaired: the
    next fetch goes back to the store.  [false] if the term was not
    quarantined. *)

val heal_pending :
  t ->
  store:Mneme.Store.t ->
  sources:(string * Vfs.t) list ->
  (string * (string, string) Stdlib.result) list
(** Drain the repair worklist against the Mneme store backing this
    engine's index session: each ticket's dictionary locator is resolved
    to its physical segment, healed from the first [source] holding a
    CRC-verified copy ({!Mneme.Scrub.heal}), and un-quarantined on
    success.  Returns per-term outcomes ([Ok source] or [Error reason]);
    failed tickets stay quarantined and stay on the worklist. *)

val run_query : ?top_k:int -> t -> Inquery.Query.t -> result
(** Evaluate one parsed query ([top_k] defaults to 100 ranked
    documents). *)

val run_query_string : ?top_k:int -> t -> string -> result
(** Parse and evaluate.  Raises [Invalid_argument] on syntax errors. *)

val run_batch : t -> string list -> result list
(** The paper's batch mode: every query of a set, in order. *)

type topk_result = {
  topk_ranked : Inquery.Ranking.ranked list;
  topk_postings_scored : int;
  topk_record_lookups : int;
  topk_plan : Inquery.Planner.plan;  (** the plan that executed *)
  topk_postings_total : int;
  topk_postings_decoded : int;
  topk_blocks_skipped : int;
  topk_seeks : int;
  topk_bytes_read : int;  (** record bytes actually decoded *)
  topk_blocks_read : int;  (** skip blocks freshly decoded *)
  topk_est_bytes : int;  (** planner's byte estimate for the plan *)
  topk_est_blocks : int;  (** planner's block estimate for the plan *)
}

val run_topk :
  ?audit:bool ->
  ?plan:Inquery.Planner.choice ->
  ?k:int ->
  t ->
  Inquery.Query.t ->
  topk_result
(** Document-at-a-time top-[k] retrieval through
    {!Inquery.Infnet.eval_topk}: the cost-based planner picks the
    cheapest applicable executor (max-score, intersection-first, or
    exhaustive) from header statistics; [plan] forces one instead.
    [audit] re-runs the exhaustive evaluator and raises
    {!Inquery.Infnet.Audit_mismatch} on any divergence;
    [~plan:(Forced Exhaustive)] is the benchmark baseline.  CPU is
    charged to the {!Vfs} clock per posting actually scored, so pruning
    shows up in the simulated timings too. *)

val run_topk_string :
  ?audit:bool ->
  ?plan:Inquery.Planner.choice ->
  ?k:int ->
  t ->
  string ->
  topk_result
(** Parse and evaluate.  Raises [Invalid_argument] on syntax errors. *)
