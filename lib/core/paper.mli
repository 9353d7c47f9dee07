(** One entry point per table and figure of the paper's evaluation.

    A {!ctx} lazily prepares collections and caches timed runs, so the
    tables that share runs (3, 4, 5, 6) measure each (collection, query
    set, version) combination exactly once.  [scale] multiplies the
    preset document counts — 1.0 reproduces the calibrated defaults,
    smaller values give smoke-test suites. *)

type ctx

val create_ctx : ?progress:(string -> unit) -> ?scale:float -> unit -> ctx
(** [progress] (default: silent) receives phase messages during the
    expensive preparation steps. *)

val scale : ctx -> float

val prepared : ctx -> string -> Experiment.prepared
(** The built collection by preset name, preparing it on first use.
    Raises [Invalid_argument] for unknown names. *)

val queries : ctx -> string -> string -> string list
(** [queries ctx collection set] — the generated query strings. *)

val run : ctx -> string -> string -> Experiment.version -> Experiment.run
(** [run ctx collection set version] — cached timed run. *)

val collections_with_sets : ctx -> (string * string list) list
(** [(collection, query set names)] in the paper's order. *)

val table1 : ctx -> Util.Tables.t
(** Document collection statistics. *)

val table2 : ctx -> Util.Tables.t
(** Mneme buffer sizes per collection. *)

val table3 : ctx -> Util.Tables.t
(** Wall-clock times, three versions, improvement %. *)

val table4 : ctx -> Util.Tables.t
(** System CPU + I/O times, three versions, improvement %. *)

val table5 : ctx -> Util.Tables.t
(** I/O statistics (I, A, B) for every version. *)

val table6 : ctx -> Util.Tables.t
(** Buffer hit rates per pool for the caching Mneme version. *)

val fig1 : ctx -> Util.Tables.t
(** Cumulative inverted-list size distribution (Legal). *)

val fig2 : ctx -> Util.Tables.t
(** Frequency of use per record-size bucket (Legal query set 2). *)

val fig3 : ?sizes:int list -> ctx -> Util.Tables.t
(** Large-object buffer hit rate vs buffer size (TIPSTER query set 1).
    [sizes] defaults to a sweep from one segment to ~6x the default. *)

val items : (string * string * (ctx -> Util.Tables.t)) list
(** Every table and figure as [(id, label, build)], in presentation
    order: the ids [repro tables --only] accepts and the labels it
    prints above each table. *)
