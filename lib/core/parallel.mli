(** Multicore query serving: a domain-pool executor over per-domain
    sessions.

    The paper's evaluation is throughput-oriented — Tables 3–5 time
    whole query {e sets} — and the serial reproduction leaves the OCaml
    5 runtime's domains idle.  This module serves a query set across
    [n] domains without changing a single ranking bit:

    - {b one session per domain}: each worker gets a private {!Vfs}
      (own simulated clock and OS cache) holding its own copy of the
      finalized, read-only index image, a private store session, and
      private buffer pools whose capacities are the Table 2 budget
      {e split} across the workers ({!Buffer_sizing.split}) — so the
      run's total buffer memory stays within the paper's budget and no
      lock sits on the postings hot path (see the domain-safety
      contract in {!Mneme.Store} and {!Mneme.Buffer_pool});
    - {b work stealing}: queries are distributed block-wise into
      per-worker {!Util.Wsq} deques; an idle worker steals from the
      others, so a few expensive queries cannot strand the tail;
    - {b submission-order results}: every outcome is reported at its
      query's position in the input list, whichever domain served it.

    Two time bases are reported and never mixed: the {e simulated}
    per-domain clocks give [sim_serial_ms] (sum over workers — the
    Table 3 quantity a serial run would report) and [sim_makespan_ms]
    (max over workers — when the slowest domain finishes, i.e. the
    parallel completion time), while [real_elapsed_ms] is host
    wall-clock from {!Vfs.Clock.Monotonic}.  The paper tables stay
    simulated-time-pure.

    Rankings are a pure function of the index and the collection
    statistics, so they are independent of which session serves a query
    and of steal order; [~audit] re-runs the whole set serially and
    verifies bit-identical ranked documents and beliefs per query. *)

exception Audit_mismatch of string
(** A parallel outcome diverged from the serial re-run. *)

type mode =
  | Batch  (** {!Engine.run_query} — exhaustive evaluation, the paper's batch protocol *)
  | Topk of int  (** {!Engine.run_topk} with this [k] — max-score pruned DAAT *)

type outcome = {
  q_index : int;  (** position in the submitted query list *)
  q_domain : int;  (** worker that served it *)
  q_ranked : Inquery.Ranking.ranked list;
  q_sim_ms : float;  (** simulated wall-clock this query cost its worker *)
}

type report = {
  domains : int;
  version : Experiment.version;
  n_queries : int;
  outcomes : outcome array;  (** submission order *)
  sim_makespan_ms : float;  (** max over workers — parallel completion time *)
  sim_serial_ms : float;  (** sum over workers — serial-equivalent work *)
  real_elapsed_ms : float;  (** host monotonic time for the parallel region *)
  worker_sim_ms : float array;
  worker_queries : int array;
  steals : int;
  buffers : (string * Util.Cache_stats.t) list;
      (** per-pool, merged across workers with {!Util.Cache_stats.merge} *)
  audited : bool;
}

val run_query_set :
  ?domains:int ->
  ?audit:bool ->
  ?mode:mode ->
  ?top_k:int ->
  ?buffers:Buffer_sizing.t ->
  ?policy:Mneme.Buffer_pool.policy ->
  Experiment.prepared ->
  Experiment.version ->
  queries:string list ->
  report
(** Serve the whole query set across [domains] worker domains (default
    1; [Invalid_argument] if non-positive).  [buffers] is the whole-run
    budget before the per-domain split (default
    {!Experiment.default_buffers}; forced to zero for
    [Mneme_no_cache]).  [top_k] (default 100) is the ranked depth in
    [Batch] mode; [mode] defaults to [Batch].  With [audit], the set is
    re-run serially on a fresh single session and every query's ranked
    documents and beliefs must match bit-for-bit — raises
    {!Audit_mismatch} otherwise. *)
