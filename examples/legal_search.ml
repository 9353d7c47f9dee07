(* A scaled-down "Legal" collection end to end: build the calibrated
   synthetic collection, run its two query sets through the Mneme-backed
   engine, and score the rankings against a synthetic relevance file —
   the batch-mode evaluation loop of the paper, including recall and
   precision (the metrics the paper holds fixed).

   Run with: dune exec examples/legal_search.exe *)

let () =
  let model = Collections.Presets.legal ~scale:0.08 () in
  Printf.printf "Building %s: %d documents...\n%!" model.Collections.Docmodel.name
    model.Collections.Docmodel.n_docs;
  let prepared = Core.Experiment.prepare model in
  Printf.printf "Indexed: %d inverted lists, largest %d bytes, Mneme file %d KB.\n\n"
    prepared.Core.Experiment.record_count prepared.Core.Experiment.largest_record
    (prepared.Core.Experiment.mneme_size / 1024);

  let engine = Core.Experiment.open_engine prepared Core.Experiment.Mneme_cache in
  let clock0 = Vfs.Clock.snapshot (Vfs.clock prepared.Core.Experiment.vfs) in
  List.iter
    (fun (set_name, spec) ->
      let queries = Collections.Querygen.generate model spec in
      let judgments = Collections.Querygen.judgments model spec ~n_relevant:15 in
      Printf.printf "--- Legal query set %s (%d queries) ---\n" set_name (List.length queries);
      (* Show the first two queries verbatim. *)
      List.iteri (fun i q -> if i < 2 then Printf.printf "  e.g. %s\n" q) queries;
      let ap_sum = ref 0.0 and p10_sum = ref 0.0 and lookups = ref 0 in
      List.iter2
        (fun q rel ->
          let result = Core.Engine.run_query_string ~top_k:100 engine q in
          let ranked = List.map (fun r -> r.Inquery.Ranking.doc) result.Core.Engine.ranked in
          ap_sum := !ap_sum +. Inquery.Eval.average_precision ranked rel;
          p10_sum := !p10_sum +. Inquery.Eval.precision_at ranked rel ~k:10;
          lookups := !lookups + result.Core.Engine.record_lookups)
        queries judgments;
      let n = float_of_int (List.length queries) in
      Printf.printf "  record lookups: %d\n" !lookups;
      Printf.printf "  mean average precision (synthetic judgments): %.4f\n" (!ap_sum /. n);
      Printf.printf "  mean P@10: %.4f\n" (!p10_sum /. n);
      (* Buffer behaviour accumulated across the set. *)
      List.iter
        (fun (pool, s) ->
          if s.Util.Cache_stats.refs > 0 then
            Printf.printf "  %s buffer: %d refs, %d hits (%.0f%%)\n" pool
              s.Util.Cache_stats.refs s.Util.Cache_stats.hits
              (100.0
              *. float_of_int s.Util.Cache_stats.hits
              /. float_of_int s.Util.Cache_stats.refs))
        ((Core.Engine.store engine).Core.Index_store.buffer_stats ());
      print_newline ())
    (Collections.Presets.query_sets model);

  (* The simulated clock, over query processing only (build excluded). *)
  let s =
    Vfs.Clock.diff
      ~later:(Vfs.Clock.snapshot (Vfs.clock prepared.Core.Experiment.vfs))
      ~earlier:clock0
  in
  Printf.printf "Simulated query time: %.2f s wall (%.2f s engine CPU, %.2f s system+I/O)\n"
    (Vfs.Clock.wall_ms s /. 1000.0)
    (s.Vfs.Clock.engine_cpu_ms /. 1000.0)
    (Vfs.Clock.sys_io_ms s /. 1000.0)
