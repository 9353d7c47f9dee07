type ctx = {
  prepared : Experiment.prepared;
  queries : string list;
  mutable variant_counter : int;
}

let ablation_model scale =
  Collections.Docmodel.make ~name:"ablation"
    ~n_docs:(max 256 (int_of_float (3000.0 *. scale)))
    ~core_vocab:20000 ~mean_doc_len:200.0 ~hapax_prob:0.012 ~seed:311 ()

let create ?(progress = fun _ -> ()) ?(scale = 1.0) () =
  let model = ablation_model scale in
  let prepared = Experiment.prepare ~progress model in
  let spec =
    Collections.Querygen.make ~set_name:"ablation" ~n_queries:40 ~mean_terms:10.0 ~pool_size:120
      ~pool_top_bias:300 ~pool_skew:1.0 ~fresh_prob:0.15 ~phrase_prob:0.05 ~seed:313 ()
  in
  { prepared; queries = Collections.Querygen.generate model spec; variant_counter = 0 }

type variant_stats = {
  io_inputs : int;
  accesses : int;
  lookups : int;
  kbytes : float;
  sys_io_s : float;
  file_kb : int;
  large_hit_rate : float;
}

(* Build a fresh Mneme variant of the ablation collection and run the
   query set against it.  Rebuilding per row keeps the dictionary
   locators consistent with the store being measured. *)
let run_variant ctx ?thresholds ?policies ?policy ?(reserve = true) ?buffers () =
  ctx.variant_counter <- ctx.variant_counter + 1;
  let p = ctx.prepared in
  let vfs = p.Experiment.vfs in
  let file = Printf.sprintf "ablation-%d.mneme" ctx.variant_counter in
  let store =
    Mneme_backend.build ?thresholds ?policies vfs ~file ~dict:p.Experiment.dict
      (Inquery.Indexer.to_records p.Experiment.indexer)
  in
  let buffers =
    match buffers with
    | Some b -> b
    | None -> Buffer_sizing.compute ~largest_record:p.Experiment.largest_record ()
  in
  Vfs.purge_os_cache vfs;
  let session = Mneme_backend.open_session ?policy vfs ~file ~buffers in
  let engine =
    Engine.create ~vfs ~store:session ~dict:p.Experiment.dict
      ~n_docs:p.Experiment.model.Collections.Docmodel.n_docs
      ~avg_doc_len:(Inquery.Indexer.avg_doc_length p.Experiment.indexer)
      ~doc_len:(Inquery.Indexer.doc_length p.Experiment.indexer)
      ~reserve ()
  in
  let clock = Vfs.clock vfs in
  let c0 = Vfs.counters vfs in
  let k0 = Vfs.Clock.snapshot clock in
  let results = Engine.run_batch engine ctx.queries in
  let k1 = Vfs.Clock.snapshot clock in
  let c1 = Vfs.counters vfs in
  let io = Vfs.diff_counters ~later:c1 ~earlier:c0 in
  let interval = Vfs.Clock.diff ~later:k1 ~earlier:k0 in
  let lookups = List.fold_left (fun acc r -> acc + r.Engine.record_lookups) 0 results in
  let large_hit_rate =
    Option.fold ~none:0.0 ~some:Util.Cache_stats.hit_rate
      (List.assoc_opt "large" (session.Index_store.buffer_stats ()))
  in
  (* Release the variant's file space in the simulated FS. *)
  let stats =
    {
      io_inputs = io.Vfs.disk_inputs;
      accesses = io.Vfs.file_accesses;
      lookups;
      kbytes = float_of_int io.Vfs.bytes_read /. 1024.0;
      sys_io_s = Vfs.Clock.sys_io_ms interval /. 1000.0;
      file_kb = Mneme.Store.file_size store / 1024;
      large_hit_rate;
    }
  in
  Vfs.delete_file vfs file;
  stats

let a_of s = if s.lookups = 0 then 0.0 else float_of_int s.accesses /. float_of_int s.lookups

let policy_table ctx =
  let t =
    Util.Tables.create
      ~columns:
        [
          ("Policy", Util.Tables.Left);
          ("Reserve", Util.Tables.Left);
          ("I", Util.Tables.Right);
          ("A", Util.Tables.Right);
          ("B (KB)", Util.Tables.Right);
          ("Large Hit Rate", Util.Tables.Right);
        ]
  in
  (* A tight large buffer makes replacement decisions matter. *)
  let tight =
    Buffer_sizing.with_large
      (Buffer_sizing.compute ~largest_record:ctx.prepared.Experiment.largest_record ())
      (ctx.prepared.Experiment.largest_record * 5 / 4)
  in
  List.iter
    (fun (name, policy) ->
      List.iter
        (fun reserve ->
          let s = run_variant ctx ~policy ~reserve ~buffers:tight () in
          Util.Tables.add_row t
            [
              name;
              (if reserve then "on" else "off");
              string_of_int s.io_inputs;
              Util.Tables.fmt_float (a_of s);
              Util.Tables.fmt_float ~decimals:0 s.kbytes;
              Util.Tables.fmt_float s.large_hit_rate;
            ])
        [ true; false ])
    [ ("lru", Mneme.Buffer_pool.Lru); ("fifo", Mneme.Buffer_pool.Fifo);
      ("clock", Mneme.Buffer_pool.Clock) ];
  t

let medium_pseg_table ctx =
  let t =
    Util.Tables.create
      ~columns:
        [
          ("Medium pseg (KB)", Util.Tables.Right);
          ("I", Util.Tables.Right);
          ("A", Util.Tables.Right);
          ("B (KB)", Util.Tables.Right);
          ("File (KB)", Util.Tables.Right);
          ("Sys+IO (s)", Util.Tables.Right);
        ]
  in
  List.iter
    (fun pseg_size ->
      let medium = Mneme.Policy.make ~name:"medium" ~pseg_size ~align:pseg_size () in
      let policies = (Mneme.Policy.small, medium, Mneme.Policy.large) in
      let s = run_variant ctx ~policies () in
      Util.Tables.add_row t
        [
          string_of_int (pseg_size / 1024);
          string_of_int s.io_inputs;
          Util.Tables.fmt_float (a_of s);
          Util.Tables.fmt_float ~decimals:0 s.kbytes;
          string_of_int s.file_kb;
          Util.Tables.fmt_float s.sys_io_s;
        ])
    [ 2048; 4096; 8192; 16384; 32768 ];
  t

let threshold_table ctx =
  let t =
    Util.Tables.create
      ~columns:
        [
          ("small <= (bytes)", Util.Tables.Right);
          ("large > (bytes)", Util.Tables.Right);
          ("I", Util.Tables.Right);
          ("A", Util.Tables.Right);
          ("B (KB)", Util.Tables.Right);
          ("File (KB)", Util.Tables.Right);
        ]
  in
  List.iter
    (fun (small_max, large_min) ->
      let thresholds = { Partition.small_max; large_min } in
      (* The small pool's fixed slots must hold the largest record the
         threshold routes to it (plus the 4-byte size field). *)
      let policies =
        if small_max <= 12 then Mneme_backend.default_policies
        else begin
          let slot_size = small_max + 4 in
          let need = 6 + (255 * slot_size) in
          let rec pow2 n = if n >= need then n else pow2 (n * 2) in
          let small =
            Mneme.Policy.make ~name:"small" ~pseg_size:(pow2 4096)
              ~layout:(Mneme.Policy.Fixed_slots { slot_size })
              ~align:4096 ()
          in
          (small, Mneme.Policy.medium, Mneme.Policy.large)
        end
      in
      let s = run_variant ctx ~thresholds ~policies () in
      Util.Tables.add_row t
        [
          string_of_int small_max;
          string_of_int (large_min - 1);
          string_of_int s.io_inputs;
          Util.Tables.fmt_float (a_of s);
          Util.Tables.fmt_float ~decimals:0 s.kbytes;
          string_of_int s.file_kb;
        ])
    [ (12, 4097); (0, 4097); (64, 4097); (12, 1025); (12, 16385); (12, 257) ];
  t

let daat_table ctx =
  let p = ctx.prepared in
  let vfs = p.Experiment.vfs in
  let t =
    Util.Tables.create
      ~columns:
        [
          ("Strategy", Util.Tables.Left);
          ("Lookups", Util.Tables.Right);
          ("Postings", Util.Tables.Right);
          ("Docs Scored", Util.Tables.Right);
          ("Belief Array Cells", Util.Tables.Right);
        ]
  in
  let buffers = Experiment.default_buffers p in
  let session = Mneme_backend.open_session vfs ~file:p.Experiment.mneme_file ~buffers in
  let source =
    {
      Inquery.Infnet.fetch = session.Index_store.fetch;
      n_docs = p.Experiment.model.Collections.Docmodel.n_docs;
      max_doc_id = p.Experiment.model.Collections.Docmodel.n_docs - 1;
      avg_doc_len = Inquery.Indexer.avg_doc_length p.Experiment.indexer;
      doc_len = Inquery.Indexer.doc_length p.Experiment.indexer;
    }
  in
  let parsed = List.map Inquery.Query.parse_exn ctx.queries in
  let taat_lookups = ref 0 and taat_postings = ref 0 and taat_cells = ref 0 in
  List.iter
    (fun q ->
      let beliefs, stats = Inquery.Infnet.eval source p.Experiment.dict q in
      taat_lookups := !taat_lookups + stats.Inquery.Infnet.record_lookups;
      taat_postings := !taat_postings + stats.Inquery.Infnet.postings_scored;
      taat_cells := !taat_cells + Array.length beliefs)
    parsed;
  Util.Tables.add_row t
    [
      "term-at-a-time";
      string_of_int !taat_lookups;
      string_of_int !taat_postings;
      string_of_int !taat_cells;
      string_of_int !taat_cells;
    ];
  let daat_lookups = ref 0 and daat_postings = ref 0 and daat_scored = ref 0 in
  List.iter
    (fun q ->
      let scored, stats = Inquery.Infnet.eval_daat source p.Experiment.dict q in
      daat_lookups := !daat_lookups + stats.Inquery.Infnet.record_lookups;
      daat_postings := !daat_postings + stats.Inquery.Infnet.postings_scored;
      daat_scored := !daat_scored + List.length scored)
    parsed;
  Util.Tables.add_row t
    [
      "document-at-a-time";
      string_of_int !daat_lookups;
      string_of_int !daat_postings;
      string_of_int !daat_scored;
      "0";
    ];
  t

let update_table ?(progress = fun _ -> ()) ?(adds = 300) ?(deletes = 60) () =
  let model =
    Collections.Docmodel.make ~name:"update" ~n_docs:600 ~core_vocab:6000 ~mean_doc_len:120.0
      ~hapax_prob:0.012 ~seed:401 ()
  in
  progress "[ablation] update micro-study";
  let fresh_docs =
    let source =
      Collections.Docmodel.make ~name:"update-fresh" ~n_docs:adds ~core_vocab:6000
        ~mean_doc_len:120.0 ~hapax_prob:0.012 ~seed:402 ()
    in
    Collections.Synth.documents source
    |> Seq.map Collections.Synth.document_text
    |> List.of_seq
  in
  let t =
    Util.Tables.create
      ~columns:
        [
          ("Backend", Util.Tables.Left);
          ("Add (ms/doc)", Util.Tables.Right);
          ("Delete (ms/doc)", Util.Tables.Right);
          ("File Growth (KB)", Util.Tables.Right);
          ("Stranded (KB)", Util.Tables.Right);
        ]
  in
  List.iter
    (fun backend ->
      let prepared = Experiment.prepare model in
      let vfs = prepared.Experiment.vfs in
      let doc_lengths =
        List.init model.Collections.Docmodel.n_docs (fun d ->
            (d, Inquery.Indexer.doc_length prepared.Experiment.indexer d))
      in
      let live =
        match backend with
        | `Btree ->
          let tree = Btree.open_existing vfs prepared.Experiment.btree_file in
          Live_index.wrap_btree vfs ~tree ~dict:prepared.Experiment.dict ~doc_lengths
        | `Mneme ->
          let store = Mneme.Store.open_existing vfs prepared.Experiment.mneme_file in
          List.iter
            (fun name ->
              Mneme.Store.attach_buffer (Mneme.Store.pool store name)
                (Mneme.Buffer_pool.create ~name ~capacity:262_144 ()))
            [ "small"; "medium"; "large" ];
          Live_index.wrap_mneme vfs ~store ~dict:prepared.Experiment.dict ~doc_lengths
      in
      let clock = Vfs.clock vfs in
      let space0 = Live_index.space live in
      let k0 = Vfs.Clock.snapshot clock in
      List.iter (fun text -> ignore (Live_index.add_document live text)) fresh_docs;
      let k1 = Vfs.Clock.snapshot clock in
      for d = 0 to deletes - 1 do
        ignore (Live_index.delete_document live (d * 7 mod model.Collections.Docmodel.n_docs))
      done;
      let k2 = Vfs.Clock.snapshot clock in
      let space1 = Live_index.space live in
      let add_ms =
        Vfs.Clock.sys_io_ms (Vfs.Clock.diff ~later:k1 ~earlier:k0) /. float_of_int adds
      in
      let del_ms =
        Vfs.Clock.sys_io_ms (Vfs.Clock.diff ~later:k2 ~earlier:k1) /. float_of_int deletes
      in
      Util.Tables.add_row t
        [
          Live_index.backend_name live;
          Util.Tables.fmt_float add_ms;
          Util.Tables.fmt_float del_ms;
          string_of_int
            ((space1.Live_index.file_bytes - space0.Live_index.file_bytes) / 1024);
          string_of_int (space1.Live_index.reclaimable_bytes / 1024);
        ])
    [ `Btree; `Mneme ];
  t

(* What if INQUERY's B-tree package had cached more index levels?  The
   paper: "while these features could be added to the B-tree package to
   achieve a similar improvement, it is exactly this type of effort we
   are trying to avoid".  Here the effort is one parameter. *)
let btree_cache_table ctx =
  let p = ctx.prepared in
  let vfs = p.Experiment.vfs in
  let t =
    Util.Tables.create
      ~columns:
        [
          ("Cached Levels", Util.Tables.Right);
          ("I", Util.Tables.Right);
          ("A", Util.Tables.Right);
          ("B (KB)", Util.Tables.Right);
          ("Nodes Held", Util.Tables.Right);
          ("Sys+IO (s)", Util.Tables.Right);
        ]
  in
  List.iter
    (fun cached_levels ->
      Vfs.purge_os_cache vfs;
      (* Open the tree directly so the number of held node pages can be
         reported alongside the I/O savings it buys. *)
      let tree = Btree.open_existing ~cached_levels vfs p.Experiment.btree_file in
      let session =
        {
          Index_store.name = "btree";
          fetch = (fun entry -> Btree.lookup tree entry.Inquery.Dictionary.id);
          reserve = Index_store.no_reserve;
          buffer_stats = (fun () -> []);
          reset_buffer_stats = (fun () -> ());
          file_size = (fun () -> Btree.file_size tree);
          epoch = (fun () -> 0);
          attach_frames = Index_store.no_frames;
          fetch_resident = Index_store.never_resident;
        }
      in
      let engine =
        Engine.create ~vfs ~store:session ~dict:p.Experiment.dict
          ~n_docs:p.Experiment.model.Collections.Docmodel.n_docs
          ~avg_doc_len:(Inquery.Indexer.avg_doc_length p.Experiment.indexer)
          ~doc_len:(Inquery.Indexer.doc_length p.Experiment.indexer)
          ()
      in
      let clock = Vfs.clock vfs in
      let c0 = Vfs.counters vfs in
      let k0 = Vfs.Clock.snapshot clock in
      let results = Engine.run_batch engine ctx.queries in
      let k1 = Vfs.Clock.snapshot clock in
      let c1 = Vfs.counters vfs in
      let io = Vfs.diff_counters ~later:c1 ~earlier:c0 in
      let lookups = List.fold_left (fun acc r -> acc + r.Engine.record_lookups) 0 results in
      let a = if lookups = 0 then 0.0 else float_of_int io.Vfs.file_accesses /. float_of_int lookups in
      Util.Tables.add_row t
        [
          string_of_int cached_levels;
          string_of_int io.Vfs.disk_inputs;
          Util.Tables.fmt_float a;
          Util.Tables.fmt_float ~decimals:0 (float_of_int io.Vfs.bytes_read /. 1024.0);
          string_of_int (Btree.cached_nodes tree);
          Util.Tables.fmt_float (Vfs.Clock.sys_io_ms (Vfs.Clock.diff ~later:k1 ~earlier:k0) /. 1000.0);
        ])
    [ 0; 1; 2; 3 ];
  t

(* The paper's future-work claim, measured: "we expect that the addition
   of these services [transactions, recovery] would not introduce
   excessive overhead".  Build the same store with and without the redo
   journal (committing in batches during construction) and compare both
   build cost and query cost. *)
let journal_table ctx =
  let p = ctx.prepared in
  let vfs = p.Experiment.vfs in
  let t =
    Util.Tables.create
      ~columns:
        [
          ("Configuration", Util.Tables.Left);
          ("Build Writes", Util.Tables.Right);
          ("Build MB Written", Util.Tables.Right);
          ("Build Sys+IO (s)", Util.Tables.Right);
          ("Query A", Util.Tables.Right);
          ("Query Sys+IO (s)", Util.Tables.Right);
        ]
  in
  let build_and_query ~journaled =
    ctx.variant_counter <- ctx.variant_counter + 1;
    let file = Printf.sprintf "journal-%d.mneme" ctx.variant_counter in
    let log_file = file ^ ".jnl" in
    let clock = Vfs.clock vfs in
    let c0 = Vfs.counters vfs in
    let k0 = Vfs.Clock.snapshot clock in
    let store = Mneme.Store.create vfs file in
    let pools =
      List.map
        (fun policy ->
          let pool = Mneme.Store.add_pool store policy in
          Mneme.Store.attach_buffer pool
            (Mneme.Buffer_pool.create ~name:policy.Mneme.Policy.name ~capacity:0 ());
          (policy.Mneme.Policy.name, pool))
        [ Mneme.Policy.small; Mneme.Policy.medium; Mneme.Policy.large ]
    in
    if journaled then Mneme.Store.enable_journal store ~log_file;
    let allocate_all records =
      Seq.iter
        (fun (term_id, record) ->
          let cls = Partition.classify (Bytes.length record) in
          let pool = List.assoc (Partition.class_name cls) pools in
          let oid = Mneme.Store.allocate pool record in
          match Inquery.Dictionary.find_by_id p.Experiment.dict term_id with
          | Some entry -> entry.Inquery.Dictionary.locator <- oid
          | None -> ())
        records
    in
    let records = Inquery.Indexer.to_records p.Experiment.indexer in
    if journaled then begin
      (* Commit in batches of ~2000 records, then a final transaction
         around finalize — a realistic incremental-build protocol. *)
      let batch = ref [] and n = ref 0 in
      let flush () =
        if !batch <> [] then begin
          let chunk = List.rev !batch in
          batch := [];
          n := 0;
          Mneme.Store.transact store (fun () -> allocate_all (List.to_seq chunk))
        end
      in
      Seq.iter
        (fun r ->
          batch := r :: !batch;
          incr n;
          if !n >= 2000 then flush ())
        records;
      flush ();
      Mneme.Store.transact store (fun () -> Mneme.Store.finalize store)
    end
    else begin
      allocate_all records;
      Mneme.Store.finalize store
    end;
    let k1 = Vfs.Clock.snapshot clock in
    let c1 = Vfs.counters vfs in
    let build_io = Vfs.diff_counters ~later:c1 ~earlier:c0 in
    let build_s = Vfs.Clock.sys_io_ms (Vfs.Clock.diff ~later:k1 ~earlier:k0) /. 1000.0 in
    (* Query phase: fresh session over the built file (queries never
       write, so the journal is idle). *)
    Vfs.purge_os_cache vfs;
    let buffers = Buffer_sizing.compute ~largest_record:p.Experiment.largest_record () in
    let session = Mneme_backend.open_session vfs ~file ~buffers in
    let engine =
      Engine.create ~vfs ~store:session ~dict:p.Experiment.dict
        ~n_docs:p.Experiment.model.Collections.Docmodel.n_docs
        ~avg_doc_len:(Inquery.Indexer.avg_doc_length p.Experiment.indexer)
        ~doc_len:(Inquery.Indexer.doc_length p.Experiment.indexer)
        ()
    in
    let qc0 = Vfs.counters vfs in
    let qk0 = Vfs.Clock.snapshot clock in
    let results = Engine.run_batch engine ctx.queries in
    let qk1 = Vfs.Clock.snapshot clock in
    let qc1 = Vfs.counters vfs in
    let qio = Vfs.diff_counters ~later:qc1 ~earlier:qc0 in
    let lookups = List.fold_left (fun acc r -> acc + r.Engine.record_lookups) 0 results in
    let a = if lookups = 0 then 0.0 else float_of_int qio.Vfs.file_accesses /. float_of_int lookups in
    let query_s = Vfs.Clock.sys_io_ms (Vfs.Clock.diff ~later:qk1 ~earlier:qk0) /. 1000.0 in
    Util.Tables.add_row t
      [
        (if journaled then "journaled (2000-record batches)" else "no journal");
        string_of_int build_io.Vfs.disk_outputs;
        Util.Tables.fmt_float (float_of_int build_io.Vfs.bytes_written /. 1048576.0);
        Util.Tables.fmt_float build_s;
        Util.Tables.fmt_float a;
        Util.Tables.fmt_float query_s;
      ];
    Vfs.delete_file vfs file;
    Vfs.delete_file vfs log_file
  in
  build_and_query ~journaled:false;
  build_and_query ~journaled:true;
  t


(* Zobel/Moffat/Sacks-Davis line of work: how much does the coding
   scheme matter?  Re-encode every inverted record's gap stream under
   each scheme and compare total index volume. *)
let compression_table ctx =
  let p = ctx.prepared in
  let t =
    Util.Tables.create
      ~columns:
        [
          ("Scheme", Util.Tables.Left);
          ("Index KB", Util.Tables.Right);
          ("vs 32-bit ints", Util.Tables.Right);
          ("vs v-byte", Util.Tables.Right);
        ]
  in
  (* Per record, the gap streams are kept separate: document gaps (whose
     distribution the Golomb parameter is tuned to), and the tf/position
     stream. *)
  let streams =
    Inquery.Indexer.to_records p.Experiment.indexer
    |> Seq.map (fun (_, record) ->
           let decoded = Inquery.Postings.decode record in
           let df = List.length decoded in
           let doc_gaps = ref [] and rest = ref [] in
           let last_doc = ref (-1) in
           List.iter
             (fun dp ->
               let doc = dp.Inquery.Postings.doc in
               doc_gaps := (doc - !last_doc) :: !doc_gaps;
               last_doc := doc;
               rest := List.length dp.Inquery.Postings.positions :: !rest;
               let last_pos = ref (-1) in
               List.iter
                 (fun pos ->
                   rest := (pos - !last_pos) :: !rest;
                   last_pos := pos)
                 dp.Inquery.Postings.positions)
             decoded;
           (df, Bytes.length record, List.rev !doc_gaps, List.rev !rest))
    |> List.of_seq
  in
  let n_docs = p.Experiment.model.Collections.Docmodel.n_docs in
  let total_values =
    List.fold_left (fun acc (_, _, dg, r) -> acc + List.length dg + List.length r) 0 streams
  in
  let uncompressed = total_values * 4 in
  let vbyte_total = List.fold_left (fun acc (_, vb, _, _) -> acc + vb) 0 streams in
  let bit_total ~doc_scheme_of ~rest_scheme =
    let bits =
      List.fold_left
        (fun acc (df, _, doc_gaps, rest) ->
          let doc_scheme = doc_scheme_of df in
          let acc =
            List.fold_left (fun acc g -> acc + Util.Codes.bit_size doc_scheme g) acc doc_gaps
          in
          List.fold_left (fun acc g -> acc + Util.Codes.bit_size rest_scheme g) acc rest)
        0 streams
    in
    (bits + 7) / 8
  in
  let rows =
    [
      ("32-bit ints", uncompressed);
      ("v-byte (INQUERY)", vbyte_total);
      ( "Elias gamma",
        bit_total ~doc_scheme_of:(fun _ -> Util.Codes.Gamma) ~rest_scheme:Util.Codes.Gamma );
      ( "Elias delta",
        bit_total ~doc_scheme_of:(fun _ -> Util.Codes.Delta_code) ~rest_scheme:Util.Codes.Delta_code );
      ( "Golomb gaps + gamma",
        bit_total
          ~doc_scheme_of:(fun df ->
            Util.Codes.Golomb (Util.Codes.golomb_parameter ~n_docs ~df))
          ~rest_scheme:Util.Codes.Gamma );
    ]
  in
  List.iter
    (fun (name, bytes) ->
      Util.Tables.add_row t
        [
          name;
          string_of_int (bytes / 1024);
          Util.Tables.fmt_pct (float_of_int bytes /. float_of_int uncompressed);
          Util.Tables.fmt_pct (float_of_int bytes /. float_of_int vbyte_total);
        ])
    rows;
  t

(* Signature files vs the inverted file, on conjunctive queries — the
   comparison the paper's related work points at (Faloutsos' survey)
   but does not run. *)
let signature_table ctx =
  let p = ctx.prepared in
  let vfs = p.Experiment.vfs in
  let model = p.Experiment.model in
  let n_docs = model.Collections.Docmodel.n_docs in
  (* Conjunctive queries: pairs of popular terms. *)
  let queries =
    List.init 30 (fun i ->
        [ Collections.Synth.core_term ~rank:(1 + (i * 3 mod 150));
          Collections.Synth.core_term ~rank:(2 + (i * 7 mod 150)) ])
  in
  (* Ground truth and inverted-file cost via the Mneme session. *)
  let buffers = Experiment.default_buffers p in
  let session = Mneme_backend.open_session vfs ~file:p.Experiment.mneme_file ~buffers in
  let docs_of_term term =
    match Inquery.Dictionary.find p.Experiment.dict term with
    | None -> []
    | Some entry -> (
      match session.Index_store.fetch entry with
      | None -> []
      | Some record ->
        Inquery.Postings.fold_docs record ~init:[] ~f:(fun acc ~doc ~tf:_ -> doc :: acc)
        |> List.rev)
    in
  let intersect a b =
    let set = Hashtbl.create (List.length a) in
    List.iter (fun d -> Hashtbl.replace set d ()) a;
    List.filter (Hashtbl.mem set) b
  in
  let truth = List.map (fun terms ->
      match List.map docs_of_term terms with
      | [] -> []
      | first :: rest -> List.fold_left intersect first rest)
      queries
  in
  let t =
    Util.Tables.create
      ~columns:
        [
          ("Method", Util.Tables.Left);
          ("File KB", Util.Tables.Right);
          ("KB read / query", Util.Tables.Right);
          ("Candidates", Util.Tables.Right);
          ("True Matches", Util.Tables.Right);
          ("False Drop %", Util.Tables.Right);
        ]
  in
  let true_total = List.fold_left (fun acc l -> acc + List.length l) 0 truth in
  (* Inverted file row. *)
  let before = (Vfs.counters vfs).Vfs.bytes_read in
  let inv_candidates =
    List.fold_left
      (fun acc terms ->
        match List.map docs_of_term terms with
        | [] -> acc
        | first :: rest -> acc + List.length (List.fold_left intersect first rest))
      0 queries
  in
  let inv_read = (Vfs.counters vfs).Vfs.bytes_read - before in
  Util.Tables.add_row t
    [
      "inverted file (Mneme)";
      string_of_int (p.Experiment.mneme_size / 1024);
      Util.Tables.fmt_float (float_of_int inv_read /. 1024.0 /. float_of_int (List.length queries));
      string_of_int inv_candidates;
      string_of_int true_total;
      "0%";
    ];
  (* Signature rows.  Width sized for the collection's long documents. *)
  let doc_terms () =
    Collections.Synth.documents model |> Seq.map (fun d -> (d.Collections.Synth.id, d.Collections.Synth.terms))
  in
  List.iter
    (fun (label, organisation, file) ->
      let sf =
        Inquery.Sigfile.build vfs ~file ~width:4096 ~k:6 ~organisation ~n_docs (doc_terms ())
      in
      let before = (Vfs.counters vfs).Vfs.bytes_read in
      let cand_total =
        List.fold_left
          (fun acc terms -> acc + List.length (Inquery.Sigfile.candidates sf terms))
          0 queries
      in
      let read = (Vfs.counters vfs).Vfs.bytes_read - before in
      let false_drops = cand_total - true_total in
      Util.Tables.add_row t
        [
          label;
          string_of_int (Inquery.Sigfile.file_size sf / 1024);
          Util.Tables.fmt_float (float_of_int read /. 1024.0 /. float_of_int (List.length queries));
          string_of_int cand_total;
          string_of_int true_total;
          Util.Tables.fmt_pct
            (if cand_total = 0 then 0.0 else float_of_int false_drops /. float_of_int cand_total);
        ];
      Vfs.delete_file vfs file)
    [
      ("signature, sequential", Inquery.Sigfile.Sequential, "abl-seq.sig");
      ("signature, bit-sliced", Inquery.Sigfile.Bit_sliced, "abl-sl.sig");
    ];
  t


(* Seek-aware disk model: the default calibration charges every block
   read the same 9 ms (seek amortised in).  Splitting seek from transfer
   (RZ58-style: ~12 ms after a head move, ~2 ms sequential) rewards
   contiguous layout — Mneme's aligned segments more than the B-tree's
   scattered node pages. *)
let seek_model_table ?(progress = fun _ -> ()) () =
  let model =
    Collections.Docmodel.make ~name:"seek" ~n_docs:1500 ~core_vocab:12000 ~mean_doc_len:180.0
      ~hapax_prob:0.012 ~seed:331 ()
  in
  let spec =
    Collections.Querygen.make ~set_name:"seek" ~n_queries:30 ~mean_terms:10.0 ~pool_size:100
      ~pool_top_bias:250 ~seed:333 ()
  in
  let queries = Collections.Querygen.generate model spec in
  let t =
    Util.Tables.create
      ~columns:
        [
          ("Disk model", Util.Tables.Left);
          ("Version", Util.Tables.Left);
          ("I", Util.Tables.Right);
          ("Sys+IO (s)", Util.Tables.Right);
          ("Improvement vs B-tree", Util.Tables.Right);
        ]
  in
  List.iter
    (fun (label, cost_model) ->
      progress (Printf.sprintf "[ablation] seek model: %s" label);
      let prepared = Experiment.prepare ~cost_model model in
      let runs =
        List.map
          (fun v -> (v, Experiment.run_query_set prepared v ~queries))
          [ Experiment.Btree; Experiment.Mneme_no_cache; Experiment.Mneme_cache ]
      in
      let btree_s =
        match runs with (_, r) :: _ -> r.Experiment.sys_io_s | [] -> assert false
      in
      List.iter
        (fun (v, r) ->
          Util.Tables.add_row t
            [
              label;
              Experiment.version_name v;
              string_of_int r.Experiment.io_inputs;
              Util.Tables.fmt_float r.Experiment.sys_io_s;
              Util.Tables.fmt_pct
                (if btree_s <= 0.0 then 0.0 else (btree_s -. r.Experiment.sys_io_s) /. btree_s);
            ])
        runs)
    [
      ("flat 9 ms/block (paper calibration)", Vfs.Cost_model.default);
      ( "seek 12 ms + sequential 2 ms",
        Vfs.Cost_model.create ~disk_read_ms:12.0 ~disk_seq_read_ms:2.0 () );
    ];
  t

let all ctx =
  [
    ("Ablation: replacement policy x reservation (tight large buffer)", policy_table ctx);
    ("Ablation: medium physical-segment size", medium_pseg_table ctx);
    ("Ablation: partition thresholds", threshold_table ctx);
    ("Ablation: term-at-a-time vs document-at-a-time", daat_table ctx);
    ("Ablation: dynamic update micro-study", update_table ());
    ("Ablation: journaling overhead (transactions + recovery)", journal_table ctx);
    ("Ablation: B-tree index-node cache depth", btree_cache_table ctx);
    ("Ablation: posting compression schemes", compression_table ctx);
    ("Ablation: inverted file vs signature file (conjunctive queries)", signature_table ctx);
    ("Ablation: seek-aware disk model", seek_model_table ());
  ]
