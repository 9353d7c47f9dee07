(** The paper's experimental procedure, end to end.

    [prepare] builds one collection into both index files (B-tree and
    Mneme) inside a fresh simulated file system.  [run_query_set] then
    reproduces one timed run: read the "chill file" (purge the OS
    cache), open the chosen index version, process the whole query set
    in batch mode, and report the quantities of Tables 3-6 — simulated
    wall-clock, system+I/O and engine-CPU times, disk inputs (I), file
    accesses per record lookup (A), kilobytes read (B), and per-buffer
    hit rates. *)

type version = Btree | Mneme_no_cache | Mneme_cache

val version_name : version -> string
(** "B-Tree", "Mneme, No Cache", "Mneme, Cache". *)

type prepared = {
  model : Collections.Docmodel.t;
  vfs : Vfs.t;
  indexer : Inquery.Indexer.t;
  dict : Inquery.Dictionary.t;
  record_sizes : (int * int) array;  (** (term id, record bytes), ascending term id *)
  largest_record : int;
  record_count : int;
  btree_file : string;
  mneme_file : string;
  catalog_file : string;  (** persisted dictionary + collection stats *)
  btree_size : int;  (** file bytes after build *)
  mneme_size : int;
}

val prepare :
  ?progress:(string -> unit) -> ?cost_model:Vfs.Cost_model.t -> Collections.Docmodel.t -> prepared
(** Generate, index, and build both files.  [progress] receives coarse
    phase messages; [cost_model] substitutes hardware constants (the
    seek-model ablation). *)

val default_buffers : prepared -> Buffer_sizing.t
(** The Table 2 heuristics applied to this collection. *)

type run = {
  version : version;
  n_queries : int;
  wall_s : float;
  sys_io_s : float;
  engine_cpu_s : float;
  io_inputs : int;  (** "I" *)
  file_accesses : int;
  record_lookups : int;
  kbytes_read : float;  (** "B" *)
  postings_scored : int;
  buffers : (string * Util.Cache_stats.t) list;  (** Mneme versions only *)
}

val accesses_per_lookup : run -> float
(** "A"; 0 when no lookups were performed. *)

val open_engine :
  ?buffers:Buffer_sizing.t -> ?policy:Mneme.Buffer_pool.policy -> prepared -> version -> Engine.t
(** A fresh session over one version (chill + open), for interactive
    use and the examples.  [buffers] defaults to {!default_buffers}
    (ignored for [Btree]; forced to zero for [Mneme_no_cache]). *)

val run_query_set :
  ?buffers:Buffer_sizing.t ->
  ?policy:Mneme.Buffer_pool.policy ->
  prepared ->
  version ->
  queries:string list ->
  run
(** One timed batch run, following the paper's measurement protocol. *)

val large_buffer_sweep :
  prepared -> queries:string list -> sizes:int list -> (int * float) list
(** Figure 3: large-object buffer hit rate at each capacity (bytes),
    medium and small buffers held at their defaults. *)
