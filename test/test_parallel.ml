(* Domain-pool query serving: bit-identity with the serial engine on
   every preset collection and work accounting.  [REPRO_TEST_DOMAINS]
   (used by CI) pins the domain counts the whole file exercises. *)

let domain_counts =
  match Sys.getenv_opt "REPRO_TEST_DOMAINS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some d when d > 0 -> [ d ]
    | _ -> [ 1; 2; 4 ])
  | None -> [ 1; 2; 4 ]

(* The four preset collections at smoke scale, prepared once. *)
let scale = 0.01

let prepared_tbl : (string, Core.Experiment.prepared) Hashtbl.t = Hashtbl.create 4

let prepared_of name =
  match Hashtbl.find_opt prepared_tbl name with
  | Some p -> p
  | None ->
    let p = Core.Experiment.prepare (Collections.Presets.find ~scale name) in
    Hashtbl.add prepared_tbl name p;
    p

let preset_names = [ "cacm"; "legal"; "tipster1"; "tipster" ]

let queries_of name =
  let model = (prepared_of name).Core.Experiment.model in
  let _, spec = List.hd (Collections.Presets.query_sets model) in
  List.filteri (fun i _ -> i < 6) (Collections.Querygen.generate model spec)

let check_report ~domains ~n (r : Core.Parallel.report) =
  Alcotest.(check int) "n_queries" n r.Core.Parallel.n_queries;
  Alcotest.(check int) "domains" domains r.Core.Parallel.domains;
  Alcotest.(check bool) "audited" true r.Core.Parallel.audited;
  Array.iteri
    (fun i o ->
      Alcotest.(check int) "submission order" i o.Core.Parallel.q_index;
      Alcotest.(check bool) "served by a real worker" true
        (o.Core.Parallel.q_domain >= 0 && o.Core.Parallel.q_domain < domains))
    r.Core.Parallel.outcomes;
  Alcotest.(check int) "every query served exactly once" n
    (Array.fold_left ( + ) 0 r.Core.Parallel.worker_queries);
  Alcotest.(check bool) "makespan bounds serial work" true
    (r.Core.Parallel.sim_makespan_ms <= r.Core.Parallel.sim_serial_ms +. 1e-9)

(* The load-bearing property: whatever the domain count, steal
   interleaving, or per-worker cache state, rankings and beliefs are
   bit-identical to a serial run — [~audit] raises on any divergence. *)
let prop_parallel_matches_serial =
  QCheck.Test.make ~name:"parallel rankings bit-identical to serial (all presets)" ~count:10
    QCheck.(make Gen.(pair (oneofl preset_names) (oneofl domain_counts)))
    (fun (name, domains) ->
      let p = prepared_of name in
      let queries = queries_of name in
      let r =
        Core.Parallel.run_query_set ~domains ~audit:true p Core.Experiment.Mneme_cache ~queries
      in
      check_report ~domains ~n:(List.length queries) r;
      true)

let test_all_presets_all_domains () =
  List.iter
    (fun name ->
      let p = prepared_of name in
      let queries = queries_of name in
      List.iter
        (fun domains ->
          let r =
            Core.Parallel.run_query_set ~domains ~audit:true p Core.Experiment.Mneme_cache
              ~queries
          in
          check_report ~domains ~n:(List.length queries) r)
        domain_counts)
    preset_names

let test_topk_pruned_identical () =
  let name = "tipster1" in
  let p = prepared_of name in
  let model = p.Core.Experiment.model in
  let spec = Collections.Presets.topk_queries model in
  let queries =
    List.filteri (fun i _ -> i < 6) (Collections.Querygen.generate model spec)
  in
  List.iter
    (fun domains ->
      let r =
        Core.Parallel.run_query_set ~domains ~audit:true ~mode:(Core.Parallel.Topk 10) p
          Core.Experiment.Mneme_cache ~queries
      in
      check_report ~domains ~n:(List.length queries) r;
      Array.iter
        (fun o ->
          Alcotest.(check bool) "top-k depth respected" true
            (List.length o.Core.Parallel.q_ranked <= 10))
        r.Core.Parallel.outcomes)
    domain_counts

let test_btree_version_and_buffer_merge () =
  let p = prepared_of "cacm" in
  let queries = queries_of "cacm" in
  let domains = List.fold_left max 1 domain_counts in
  let rb = Core.Parallel.run_query_set ~domains ~audit:true p Core.Experiment.Btree ~queries in
  Alcotest.(check (list string)) "btree has no mneme pools" []
    (List.map fst rb.Core.Parallel.buffers);
  let rm = Core.Parallel.run_query_set ~domains ~audit:true p Core.Experiment.Mneme_cache ~queries in
  Alcotest.(check bool) "mneme pools merged across workers" true
    (rm.Core.Parallel.buffers <> []);
  List.iter
    (fun (pool, s) ->
      Alcotest.(check bool) (pool ^ " saw traffic or stayed idle") true
        (s.Util.Cache_stats.refs >= s.Util.Cache_stats.hits && s.Util.Cache_stats.hits >= 0))
    rm.Core.Parallel.buffers

let test_rejects_bad_arguments () =
  let p = prepared_of "cacm" in
  Alcotest.check_raises "non-positive domains"
    (Invalid_argument "Parallel.run_query_set: domains must be positive") (fun () ->
      ignore (Core.Parallel.run_query_set ~domains:0 p Core.Experiment.Mneme_cache ~queries:[]));
  Alcotest.check_raises "non-positive k"
    (Invalid_argument "Parallel.run_query_set: top-k depth must be positive") (fun () ->
      ignore
        (Core.Parallel.run_query_set ~mode:(Core.Parallel.Topk 0) p Core.Experiment.Mneme_cache
           ~queries:[]))

let test_empty_query_set () =
  let p = prepared_of "cacm" in
  let r = Core.Parallel.run_query_set ~domains:2 ~audit:true p Core.Experiment.Mneme_cache ~queries:[] in
  Alcotest.(check int) "no outcomes" 0 (Array.length r.Core.Parallel.outcomes);
  Alcotest.(check int) "no queries" 0 r.Core.Parallel.n_queries

let suite =
  [
    Alcotest.test_case "all presets, all domain counts, audited" `Slow
      test_all_presets_all_domains;
    Alcotest.test_case "top-k pruned queries identical" `Slow test_topk_pruned_identical;
    Alcotest.test_case "btree version + buffer merge" `Quick test_btree_version_and_buffer_merge;
    Alcotest.test_case "argument validation" `Quick test_rejects_bad_arguments;
    Alcotest.test_case "empty query set" `Quick test_empty_query_set;
    QCheck_alcotest.to_alcotest prop_parallel_matches_serial;
  ]
