type version = Btree | Mneme_no_cache | Mneme_cache

let version_name = function
  | Btree -> "B-Tree"
  | Mneme_no_cache -> "Mneme, No Cache"
  | Mneme_cache -> "Mneme, Cache"

type prepared = {
  model : Collections.Docmodel.t;
  vfs : Vfs.t;
  indexer : Inquery.Indexer.t;
  dict : Inquery.Dictionary.t;
  record_sizes : (int * int) array;
  largest_record : int;
  record_count : int;
  btree_file : string;
  mneme_file : string;
  catalog_file : string;
  btree_size : int;
  mneme_size : int;
}

let prepare ?(progress = fun _ -> ()) ?cost_model model =
  let name = model.Collections.Docmodel.name in
  progress (Printf.sprintf "[%s] generating and indexing %d documents" name
              model.Collections.Docmodel.n_docs);
  let vfs = Vfs.create ?cost_model () in
  let indexer = Collections.Synth.build_index model in
  let dict = Inquery.Indexer.dictionary indexer in
  let record_sizes =
    Inquery.Indexer.to_records indexer
    |> Seq.map (fun (term_id, record) -> (term_id, Bytes.length record))
    |> Array.of_seq
  in
  let largest_record = Array.fold_left (fun acc (_, n) -> max acc n) 1 record_sizes in
  progress (Printf.sprintf "[%s] bulk-loading B-tree" name);
  let btree_file = name ^ ".btree" in
  let tree = Btree_backend.build vfs ~file:btree_file (Inquery.Indexer.to_records indexer) in
  Btree.flush tree;
  progress (Printf.sprintf "[%s] allocating Mneme objects" name);
  let mneme_file = name ^ ".mneme" in
  let store = Mneme_backend.build vfs ~file:mneme_file ~dict (Inquery.Indexer.to_records indexer) in
  (* The system catalog: dictionary (with the freshly assigned Mneme
     locators) and collection statistics, persisted so each timed
     session starts from disk like a real process would. *)
  let catalog_file = name ^ ".catalog" in
  Catalog.save vfs ~file:catalog_file (Catalog.of_indexer indexer);
  {
    model;
    vfs;
    indexer;
    dict;
    record_sizes;
    largest_record;
    record_count = Array.length record_sizes;
    btree_file;
    mneme_file;
    catalog_file;
    btree_size = Btree.file_size tree;
    mneme_size = Mneme.Store.file_size store;
  }

let default_buffers prepared = Buffer_sizing.compute ~largest_record:prepared.largest_record ()

type run = {
  version : version;
  n_queries : int;
  wall_s : float;
  sys_io_s : float;
  engine_cpu_s : float;
  io_inputs : int;
  file_accesses : int;
  record_lookups : int;
  kbytes_read : float;
  postings_scored : int;
  buffers : (string * Util.Cache_stats.t) list;
}

let accesses_per_lookup run =
  if run.record_lookups = 0 then 0.0
  else float_of_int run.file_accesses /. float_of_int run.record_lookups

let open_store ?policy ?buffers prepared version =
  match version with
  | Btree -> Btree_backend.open_session prepared.vfs ~file:prepared.btree_file
  | Mneme_no_cache ->
    Mneme_backend.open_session ?policy prepared.vfs ~file:prepared.mneme_file
      ~buffers:Buffer_sizing.no_cache
  | Mneme_cache ->
    let buffers =
      match buffers with Some b -> b | None -> default_buffers prepared
    in
    Mneme_backend.open_session ?policy prepared.vfs ~file:prepared.mneme_file ~buffers

let engine ?reserve vfs store (catalog : Catalog.t) =
  Engine.create ~vfs ~store ~dict:catalog.Catalog.dict ~n_docs:catalog.Catalog.n_docs
    ~avg_doc_len:(Catalog.avg_doc_length catalog) ~doc_len:(Catalog.doc_len catalog) ?reserve ()

(* The chill file: no inverted data survives in the OS cache between
   runs; then the files are opened and initialisation (including the
   catalog read, a new in-memory hash dictionary per session, as a new
   process would have) completes before timing starts. *)
let open_engine ?buffers ?policy prepared version =
  Vfs.purge_os_cache prepared.vfs;
  let store = open_store ?policy ?buffers prepared version in
  engine prepared.vfs store (Catalog.load prepared.vfs ~file:prepared.catalog_file)

let measure vfs version engine ~queries =
  let clock = Vfs.clock vfs in
  let counters0 = Vfs.counters vfs in
  let clock0 = Vfs.Clock.snapshot clock in
  let results = Engine.run_batch engine queries in
  let clock1 = Vfs.Clock.snapshot clock in
  let counters1 = Vfs.counters vfs in
  let interval = Vfs.Clock.diff ~later:clock1 ~earlier:clock0 in
  let io = Vfs.diff_counters ~later:counters1 ~earlier:counters0 in
  let total f = List.fold_left (fun acc r -> acc + f r) 0 results in
  {
    version;
    n_queries = List.length queries;
    wall_s = Vfs.Clock.wall_ms interval /. 1000.0;
    sys_io_s = Vfs.Clock.sys_io_ms interval /. 1000.0;
    engine_cpu_s = interval.Vfs.Clock.engine_cpu_ms /. 1000.0;
    io_inputs = io.Vfs.disk_inputs;
    file_accesses = io.Vfs.file_accesses;
    record_lookups = total (fun r -> r.Engine.record_lookups);
    kbytes_read = float_of_int io.Vfs.bytes_read /. 1024.0;
    postings_scored = total (fun r -> r.Engine.postings_scored);
    buffers = (Engine.store engine).Index_store.buffer_stats ();
  }

let run_query_set ?buffers ?policy prepared version ~queries =
  measure prepared.vfs version (open_engine ?buffers ?policy prepared version) ~queries

let large_hit_rate run =
  Option.fold ~none:0.0 ~some:Util.Cache_stats.hit_rate (List.assoc_opt "large" run.buffers)

let large_buffer_sweep prepared ~queries ~sizes =
  List.map
    (fun size ->
      let buffers = Buffer_sizing.with_large (default_buffers prepared) size in
      (size, large_hit_rate (run_query_set ~buffers prepared Mneme_cache ~queries)))
    sizes
