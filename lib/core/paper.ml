type ctx = {
  ctx_scale : float;
  progress : string -> unit;
  mutable prepared_cache : (string * Experiment.prepared) list;
  runs : (string * string * Experiment.version, Experiment.run) Hashtbl.t;
}

let create_ctx ?(progress = fun _ -> ()) ?(scale = 1.0) () =
  { ctx_scale = scale; progress; prepared_cache = []; runs = Hashtbl.create 32 }

let scale ctx = ctx.ctx_scale

let prepared ctx name =
  match List.assoc_opt name ctx.prepared_cache with
  | Some p -> p
  | None ->
    let model = Collections.Presets.find ~scale:ctx.ctx_scale name in
    let p = Experiment.prepare ~progress:ctx.progress model in
    ctx.prepared_cache <- (name, p) :: ctx.prepared_cache;
    p

let query_spec ctx collection set =
  let model = Collections.Presets.find ~scale:ctx.ctx_scale collection in
  match List.assoc_opt set (Collections.Presets.query_sets model) with
  | Some spec -> (model, spec)
  | None ->
    invalid_arg (Printf.sprintf "Paper.queries: no query set %s for %s" set collection)

let queries ctx collection set =
  let model, spec = query_spec ctx collection set in
  Collections.Querygen.generate model spec

let run ctx collection set version =
  let key = (collection, set, version) in
  match Hashtbl.find_opt ctx.runs key with
  | Some r -> r
  | None ->
    let p = prepared ctx collection in
    let qs = queries ctx collection set in
    ctx.progress
      (Printf.sprintf "[%s] query set %s, %s" collection set (Experiment.version_name version));
    let r = Experiment.run_query_set p version ~queries:qs in
    Hashtbl.replace ctx.runs key r;
    r

let collections_with_sets _ctx =
  [
    ("cacm", [ "1"; "2"; "3" ]);
    ("legal", [ "1"; "2" ]);
    ("tipster1", [ "1" ]);
    ("tipster", [ "1" ]);
  ]

let collection_names ctx = List.map fst (collections_with_sets ctx)

let kb = Util.Tables.fmt_kbytes

let table1 ctx =
  let t =
    Util.Tables.create
      ~columns:
        [
          ("Collection", Util.Tables.Left);
          ("Number of Documents", Util.Tables.Right);
          ("Collection Size", Util.Tables.Right);
          ("# of Records", Util.Tables.Right);
          ("B-Tree Size", Util.Tables.Right);
          ("Mneme Size", Util.Tables.Right);
        ]
  in
  List.iter
    (fun name ->
      let p = prepared ctx name in
      Util.Tables.add_row t
        [
          name;
          string_of_int (Inquery.Indexer.document_count p.Experiment.indexer);
          kb (Inquery.Indexer.collection_bytes p.Experiment.indexer);
          string_of_int p.Experiment.record_count;
          kb p.Experiment.btree_size;
          kb p.Experiment.mneme_size;
        ])
    (collection_names ctx);
  t

let table2 ctx =
  let t =
    Util.Tables.create
      ~columns:
        [
          ("Collection", Util.Tables.Left);
          ("Small", Util.Tables.Right);
          ("Medium", Util.Tables.Right);
          ("Large", Util.Tables.Right);
        ]
  in
  List.iter
    (fun name ->
      let p = prepared ctx name in
      let b = Experiment.default_buffers p in
      Util.Tables.add_row t
        [
          name;
          Util.Tables.fmt_float ~decimals:1 (float_of_int b.Buffer_sizing.small /. 1024.0);
          Util.Tables.fmt_float ~decimals:1 (float_of_int b.Buffer_sizing.medium /. 1024.0);
          string_of_int (b.Buffer_sizing.large / 1024);
        ])
    (collection_names ctx);
  t

let versions = [ Experiment.Btree; Experiment.Mneme_no_cache; Experiment.Mneme_cache ]

let improvement ~btree ~cache = if btree <= 0.0 then 0.0 else (btree -. cache) /. btree

let time_table ctx ~extract =
  let t =
    Util.Tables.create
      ~columns:
        [
          ("Collection", Util.Tables.Left);
          ("Query Set", Util.Tables.Left);
          ("B-Tree", Util.Tables.Right);
          ("Mneme, No Cache", Util.Tables.Right);
          ("Mneme, Cache", Util.Tables.Right);
          ("Improvement", Util.Tables.Right);
        ]
  in
  List.iter
    (fun (collection, sets) ->
      List.iter
        (fun set ->
          let times = List.map (fun v -> extract (run ctx collection set v)) versions in
          match times with
          | [ btree; nocache; cache ] ->
            Util.Tables.add_row t
              [
                collection;
                set;
                Util.Tables.fmt_float btree;
                Util.Tables.fmt_float nocache;
                Util.Tables.fmt_float cache;
                Util.Tables.fmt_pct (improvement ~btree ~cache);
              ]
          | _ -> assert false)
        sets)
    (collections_with_sets ctx);
  t

let table3 ctx = time_table ctx ~extract:(fun r -> r.Experiment.wall_s)
let table4 ctx = time_table ctx ~extract:(fun r -> r.Experiment.sys_io_s)

let table5 ctx =
  let t =
    Util.Tables.create
      ~columns:
        ([ ("Collection", Util.Tables.Left); ("Query Set", Util.Tables.Left) ]
        @ List.concat_map
            (fun v ->
              let tag =
                match v with
                | Experiment.Btree -> "BT"
                | Experiment.Mneme_no_cache -> "Mn"
                | Experiment.Mneme_cache -> "Mc"
              in
              [ (tag ^ " I", Util.Tables.Right); (tag ^ " A", Util.Tables.Right);
                (tag ^ " B", Util.Tables.Right) ])
            versions)
  in
  List.iter
    (fun (collection, sets) ->
      List.iter
        (fun set ->
          let cells =
            List.concat_map
              (fun v ->
                let r = run ctx collection set v in
                [
                  string_of_int r.Experiment.io_inputs;
                  Util.Tables.fmt_float (Experiment.accesses_per_lookup r);
                  string_of_int (int_of_float r.Experiment.kbytes_read);
                ])
              versions
          in
          Util.Tables.add_row t ((collection :: [ set ]) @ cells))
        sets)
    (collections_with_sets ctx);
  t

let table6 ctx =
  let t =
    Util.Tables.create
      ~columns:
        [
          ("Collection", Util.Tables.Left);
          ("Query Set", Util.Tables.Left);
          ("S Refs", Util.Tables.Right);
          ("S Hits", Util.Tables.Right);
          ("S Rate", Util.Tables.Right);
          ("M Refs", Util.Tables.Right);
          ("M Hits", Util.Tables.Right);
          ("M Rate", Util.Tables.Right);
          ("L Refs", Util.Tables.Right);
          ("L Hits", Util.Tables.Right);
          ("L Rate", Util.Tables.Right);
        ]
  in
  List.iter
    (fun (collection, sets) ->
      List.iter
        (fun set ->
          let r = run ctx collection set Experiment.Mneme_cache in
          let cells =
            List.concat_map
              (fun pool ->
                match List.assoc_opt pool r.Experiment.buffers with
                | Some s ->
                  [
                    string_of_int s.Util.Cache_stats.refs;
                    string_of_int s.Util.Cache_stats.hits;
                    Util.Tables.fmt_float (Util.Cache_stats.hit_rate s);
                  ]
                | None -> [ "0"; "0"; "0.00" ])
              [ "small"; "medium"; "large" ]
          in
          Util.Tables.add_row t ((collection :: [ set ]) @ cells))
        sets)
    (collections_with_sets ctx);
  t

let fig1 ctx =
  let p = prepared ctx "legal" in
  let t =
    Util.Tables.create
      ~columns:
        [
          ("Record Size (bytes)", Util.Tables.Right);
          ("% of Records", Util.Tables.Right);
          ("% of File Size", Util.Tables.Right);
        ]
  in
  List.iter
    (fun pt ->
      Util.Tables.add_row t
        [
          string_of_int pt.Report.size;
          Util.Tables.fmt_float (100.0 *. pt.Report.records_le);
          Util.Tables.fmt_float (100.0 *. pt.Report.bytes_le);
        ])
    (Report.fig1 p);
  t

let fig2 ctx =
  let p = prepared ctx "legal" in
  let qs = queries ctx "legal" "2" in
  let t =
    Util.Tables.create
      ~columns:[ ("Record Size >= (bytes)", Util.Tables.Right); ("Uses", Util.Tables.Right) ]
  in
  List.iter
    (fun pt ->
      Util.Tables.add_row t
        [ string_of_int pt.Report.bucket_min; string_of_int pt.Report.uses ])
    (Report.fig2 p ~queries:qs);
  t

let fig3 ?sizes ctx =
  let collection = "tipster" in
  let p = prepared ctx collection in
  let default_large = (Experiment.default_buffers p).Buffer_sizing.large in
  let sizes =
    match sizes with
    | Some s -> s
    | None ->
      [ 1; 2; 4; 8; 12; 16; 24; 32; 48 ]
      |> List.map (fun k -> max 8192 (k * default_large / 8))
      |> List.sort_uniq compare
  in
  let qs = queries ctx collection "1" in
  let t =
    Util.Tables.create
      ~columns:[ ("Buffer Size (KB)", Util.Tables.Right); ("Hit Rate", Util.Tables.Right) ]
  in
  List.iter
    (fun (size, rate) ->
      Util.Tables.add_row t [ string_of_int (size / 1024); Util.Tables.fmt_float rate ])
    (Experiment.large_buffer_sweep p ~queries:qs ~sizes);
  t

let all ctx =
  [
    ("Figure 1: cumulative inverted-list size distribution (Legal)", fig1 ctx);
    ("Table 1: document collection statistics (sizes in KB)", table1 ctx);
    ("Figure 2: frequency of use by record size, Legal query set 2", fig2 ctx);
    ("Table 2: Mneme buffer sizes (KB)", table2 ctx);
    ("Table 3: wall-clock times (seconds, simulated)", table3 ctx);
    ("Table 4: system CPU plus I/O times (seconds, simulated)", table4 ctx);
    ("Table 5: I/O statistics (I = disk inputs, A = accesses/lookup, B = KB read)", table5 ctx);
    ("Table 6: buffer hit rates (Mneme, Cache)", table6 ctx);
    ("Figure 3: large-object buffer hit rate vs size (TIPSTER query set 1)", fig3 ctx);
  ]
