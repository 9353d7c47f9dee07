(* The experiment driver end to end on a small collection, checking the
   paper's qualitative results as invariants. *)

let model () =
  Collections.Docmodel.make ~name:"exp" ~n_docs:800 ~core_vocab:3000 ~mean_doc_len:80.0
    ~hapax_prob:0.015 ~seed:23 ()

let prepared = lazy (Core.Experiment.prepare (model ()))

let queries =
  lazy
    (Collections.Querygen.generate (model ())
       (Collections.Querygen.make ~set_name:"exp" ~n_queries:20 ~mean_terms:6.0 ~pool_size:50
          ~pool_top_bias:200 ~seed:41 ()))

let run version = Core.Experiment.run_query_set (Lazy.force prepared) version ~queries:(Lazy.force queries)

let test_prepare_consistency () =
  let p = Lazy.force prepared in
  Alcotest.(check int) "record sizes count" p.Core.Experiment.record_count
    (Array.length p.Core.Experiment.record_sizes);
  Alcotest.(check bool) "largest positive" true (p.Core.Experiment.largest_record > 0);
  Alcotest.(check bool) "btree file non-empty" true (p.Core.Experiment.btree_size > 0);
  Alcotest.(check bool) "mneme file non-empty" true (p.Core.Experiment.mneme_size > 0);
  let max_size = Array.fold_left (fun acc (_, s) -> max acc s) 0 p.Core.Experiment.record_sizes in
  Alcotest.(check int) "largest matches" max_size p.Core.Experiment.largest_record

let test_version_names () =
  Alcotest.(check string) "btree" "B-Tree" (Core.Experiment.version_name Core.Experiment.Btree);
  Alcotest.(check string) "nocache" "Mneme, No Cache"
    (Core.Experiment.version_name Core.Experiment.Mneme_no_cache);
  Alcotest.(check string) "cache" "Mneme, Cache"
    (Core.Experiment.version_name Core.Experiment.Mneme_cache)

let test_btree_access_characteristic () =
  let r = run Core.Experiment.Btree in
  let a = Core.Experiment.accesses_per_lookup r in
  Alcotest.(check bool)
    (Printf.sprintf "A well above 1 (got %.2f)" a)
    true (a >= 1.5);
  Alcotest.(check int) "no buffers" 0 (List.length r.Core.Experiment.buffers)

let test_mneme_access_characteristic () =
  let r = run Core.Experiment.Mneme_no_cache in
  let a = Core.Experiment.accesses_per_lookup r in
  Alcotest.(check bool)
    (Printf.sprintf "A close to 1 (got %.2f)" a)
    true
    (a >= 0.95 && a <= 1.25)

let test_cache_reduces_accesses () =
  let nc = run Core.Experiment.Mneme_no_cache in
  let c = run Core.Experiment.Mneme_cache in
  Alcotest.(check bool) "fewer accesses with cache" true
    (c.Core.Experiment.file_accesses < nc.Core.Experiment.file_accesses);
  Alcotest.(check bool) "fewer bytes with cache" true
    (c.Core.Experiment.kbytes_read < nc.Core.Experiment.kbytes_read);
  Alcotest.(check bool) "A below 1 with cache" true
    (Core.Experiment.accesses_per_lookup c < 1.0)

let test_paper_headline_orderings () =
  (* The paper's core result: Mneme beats the B-tree; caching helps more. *)
  let bt = run Core.Experiment.Btree in
  let nc = run Core.Experiment.Mneme_no_cache in
  let c = run Core.Experiment.Mneme_cache in
  Alcotest.(check bool) "nocache sys+io <= btree" true
    (nc.Core.Experiment.sys_io_s <= bt.Core.Experiment.sys_io_s);
  Alcotest.(check bool) "cache sys+io <= nocache" true
    (c.Core.Experiment.sys_io_s <= nc.Core.Experiment.sys_io_s);
  Alcotest.(check bool) "wall ordering" true
    (c.Core.Experiment.wall_s <= bt.Core.Experiment.wall_s);
  (* Engine CPU is identical across versions: same queries, same index. *)
  Alcotest.(check (float 0.02)) "engine cpu comparable" bt.Core.Experiment.engine_cpu_s
    c.Core.Experiment.engine_cpu_s

let test_runs_deterministic () =
  let r1 = run Core.Experiment.Mneme_cache in
  let r2 = run Core.Experiment.Mneme_cache in
  Alcotest.(check int) "I" r1.Core.Experiment.io_inputs r2.Core.Experiment.io_inputs;
  Alcotest.(check int) "accesses" r1.Core.Experiment.file_accesses r2.Core.Experiment.file_accesses;
  Alcotest.(check (float 1e-9)) "wall" r1.Core.Experiment.wall_s r2.Core.Experiment.wall_s

let test_buffer_stats_present_for_cache () =
  let c = run Core.Experiment.Mneme_cache in
  Alcotest.(check (list string)) "pools" [ "small"; "medium"; "large" ]
    (List.map fst c.Core.Experiment.buffers);
  let refs = List.fold_left (fun acc (_, s) -> acc + s.Util.Cache_stats.refs) 0 c.Core.Experiment.buffers in
  Alcotest.(check bool) "references recorded" true (refs > 0)

let test_n_queries () =
  let r = run Core.Experiment.Btree in
  Alcotest.(check int) "query count" 20 r.Core.Experiment.n_queries;
  Alcotest.(check bool) "lookups happened" true (r.Core.Experiment.record_lookups > 0);
  Alcotest.(check bool) "postings scored" true (r.Core.Experiment.postings_scored > 0)

let test_default_buffers_heuristic () =
  let p = Lazy.force prepared in
  let b = Core.Experiment.default_buffers p in
  Alcotest.(check int) "large rule" (3 * p.Core.Experiment.largest_record)
    b.Core.Buffer_sizing.large

let test_sweep_monotone_tendency () =
  let p = Lazy.force prepared in
  let qs = Lazy.force queries in
  let sizes = [ 8192; 65536; 1 lsl 20 ] in
  let rates = Core.Experiment.large_buffer_sweep p ~queries:qs ~sizes in
  Alcotest.(check int) "all sizes" 3 (List.length rates);
  let hit s = List.assoc s rates in
  Alcotest.(check bool) "bigger buffer never worse (ends)" true (hit (1 lsl 20) >= hit 8192);
  List.iter
    (fun (_, rate) -> Alcotest.(check bool) "rate in [0,1]" true (rate >= 0.0 && rate <= 1.0))
    rates

let test_open_engine_smoke () =
  let p = Lazy.force prepared in
  let engine = Core.Experiment.open_engine p Core.Experiment.Mneme_cache in
  let result = Core.Engine.run_query_string engine "#sum( ba be bi )" in
  Alcotest.(check bool) "some lookups" true (result.Core.Engine.record_lookups >= 0);
  Alcotest.(check bool) "ranked list" true (List.length result.Core.Engine.ranked >= 0)

let test_policy_ablation_runs () =
  let p = Lazy.force prepared in
  let qs = Lazy.force queries in
  List.iter
    (fun policy ->
      let r = Core.Experiment.run_query_set ~policy p Core.Experiment.Mneme_cache ~queries:qs in
      Alcotest.(check bool) "ran" true (r.Core.Experiment.file_accesses > 0))
    [ Mneme.Buffer_pool.Lru; Mneme.Buffer_pool.Fifo; Mneme.Buffer_pool.Clock ]

let suite =
  [
    Alcotest.test_case "prepare consistency" `Quick test_prepare_consistency;
    Alcotest.test_case "version names" `Quick test_version_names;
    Alcotest.test_case "btree access characteristic" `Quick test_btree_access_characteristic;
    Alcotest.test_case "mneme access characteristic" `Quick test_mneme_access_characteristic;
    Alcotest.test_case "cache reduces accesses" `Quick test_cache_reduces_accesses;
    Alcotest.test_case "paper headline orderings" `Quick test_paper_headline_orderings;
    Alcotest.test_case "runs deterministic" `Quick test_runs_deterministic;
    Alcotest.test_case "buffer stats present" `Quick test_buffer_stats_present_for_cache;
    Alcotest.test_case "n queries" `Quick test_n_queries;
    Alcotest.test_case "default buffers heuristic" `Quick test_default_buffers_heuristic;
    Alcotest.test_case "sweep monotone tendency" `Quick test_sweep_monotone_tendency;
    Alcotest.test_case "open engine smoke" `Quick test_open_engine_smoke;
    Alcotest.test_case "policy ablation runs" `Quick test_policy_ablation_runs;
  ]
