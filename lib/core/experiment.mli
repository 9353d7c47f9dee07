(** The paper's experimental procedure, end to end: the one run
    protocol behind Tables 3-6 and every study that times a query set.

    [prepare] builds one collection into both index files (B-tree and
    Mneme) inside a fresh simulated file system.  A timed run then
    follows the paper's protocol: read the "chill file" (purge the OS
    cache), open one index version ({!open_engine}), process the whole
    query set in batch mode, and report the quantities of Tables 3-6 —
    simulated wall-clock, system+I/O and engine-CPU times, disk inputs
    (I), file accesses per record lookup (A), kilobytes read (B), and
    per-buffer hit rates ({!measure}).  [run_query_set] is both halves.

    The other studies take their halves from here rather than copying
    them:
    - {!Ablation} opens each variant's session itself (a rebuilt Mneme
      file, a B-tree with more cached levels, a journaled build) and
      times it with {!measure}, ranking through {!engine} over the
      build's statistics held in memory;
    - {!Parallel} calls {!open_engine} once per domain on a private
      file system holding a copy of the index and catalog;
    - {!Torture}'s failover and scrub families rank through {!engine}
      over {!Mneme_backend.session} of the store they built. *)

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

val engine : ?reserve:bool -> Vfs.t -> Index_store.t -> Catalog.t -> Engine.t
(** An engine over [store] that ranks with [catalog]'s dictionary,
    document count and lengths.  It does no I/O itself.  [reserve] as in
    {!Engine.create}. *)

val open_engine :
  ?buffers:Buffer_sizing.t -> ?policy:Mneme.Buffer_pool.policy -> prepared -> version -> Engine.t
(** A fresh session over one version: chill, open the index file, load
    the catalog from disk, and wire {!engine} over them.  [buffers]
    defaults to {!default_buffers} (ignored for [Btree]; forced to zero
    for [Mneme_no_cache]). *)

val measure : Vfs.t -> version -> Engine.t -> queries:string list -> run
(** The counting half of the protocol: process [queries] in batch on
    [engine] and report the differences of [vfs]'s counters and clock
    over the batch, with the engine's buffer statistics after it.
    [version] only labels the run. *)

val run_query_set :
  ?buffers:Buffer_sizing.t ->
  ?policy:Mneme.Buffer_pool.policy ->
  prepared ->
  version ->
  queries:string list ->
  run
(** One timed batch run: {!measure} over {!open_engine}. *)

val large_hit_rate : run -> float
(** The large-object buffer's hit rate; 0 when the run had none. *)

val large_buffer_sweep :
  prepared -> queries:string list -> sizes:int list -> (int * float) list
(** Figure 3: large-object buffer hit rate at each capacity (bytes),
    medium and small buffers held at their defaults. *)
