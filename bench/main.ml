(* Benchmark harness.

   Part 1 — Bechamel micro-benchmarks: one group per paper table/figure,
   measuring the operation whose cost that table aggregates (record
   lookups for Tables 3-5, buffer faults for Table 6 and Figure 3,
   index construction paths for Table 1 and Figure 1, query-set term
   traffic for Figure 2).

   Part 2 — full reproduction: regenerates every table and figure of
   the paper on the calibrated synthetic collections (simulated 1993
   hardware), exactly as DESIGN.md's experiment index specifies.

   REPRO_SCALE (float, default 1.0) scales collection document counts;
   REPRO_SKIP_MICRO=1 skips part 1. *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Fixtures for the micro-benchmarks: one small collection built into
   both backends. *)

type fixture = {
  dict : Inquery.Dictionary.t;
  tree : Btree.t;
  mneme_cache : Core.Index_store.t;
  mneme_nocache : Core.Index_store.t;
  entries : Inquery.Dictionary.entry array;
  sample_record : bytes;
  engine : Core.Engine.t;
}

let fixture =
  lazy
    (let model =
       Collections.Docmodel.make ~name:"bench" ~n_docs:1500 ~core_vocab:8000
         ~mean_doc_len:120.0 ~hapax_prob:0.012 ~seed:71 ()
     in
     let ix = Collections.Synth.build_index model in
     let dict = Inquery.Indexer.dictionary ix in
     let vfs = Vfs.create () in
     let tree = Core.Btree_backend.build vfs ~file:"b.btree" (Inquery.Indexer.to_records ix) in
     Btree.flush tree;
     ignore (Core.Mneme_backend.build vfs ~file:"b.mneme" ~dict (Inquery.Indexer.to_records ix));
     let buffers = Core.Buffer_sizing.compute ~largest_record:100_000 () in
     let mneme_cache = Core.Mneme_backend.open_session vfs ~file:"b.mneme" ~buffers in
     let mneme_nocache =
       Core.Mneme_backend.open_session vfs ~file:"b.mneme" ~buffers:Core.Buffer_sizing.no_cache
     in
     let entries = Array.make 64 (Inquery.Dictionary.intern dict "ba") in
     for i = 0 to 63 do
       entries.(i) <-
         (match Inquery.Dictionary.find dict (Collections.Synth.core_term ~rank:(1 + (i * 7))) with
         | Some e -> e
         | None -> entries.(0))
     done;
     let sample_record =
       match mneme_cache.Core.Index_store.fetch entries.(0) with
       | Some r -> r
       | None -> assert false
     in
     let store = Core.Btree_backend.open_session vfs ~file:"b.btree" in
     let engine =
       Core.Engine.create ~vfs ~store ~dict
         ~n_docs:(Inquery.Indexer.document_count ix)
         ~avg_doc_len:(Inquery.Indexer.avg_doc_length ix)
         ~doc_len:(Inquery.Indexer.doc_length ix) ()
     in
     { dict; tree; mneme_cache; mneme_nocache; entries; sample_record; engine })

let counter = ref 0

let next_entry f =
  incr counter;
  f.entries.(!counter land 63)

(* Table 1 / Figure 1: index construction and record coding. *)
let bench_table1 =
  let docs =
    lazy
      (let model =
         Collections.Docmodel.make ~name:"t1" ~n_docs:64 ~core_vocab:2000 ~mean_doc_len:100.0
           ~seed:5 ()
       in
       Array.of_seq
         (Seq.map (fun d -> d.Collections.Synth.terms) (Collections.Synth.documents model)))
  in
  [
    Test.make ~name:"index 64 synthetic docs"
      (Staged.stage (fun () ->
           let docs = Lazy.force docs in
           let ix = Inquery.Indexer.create () in
           Array.iteri (fun i terms -> Inquery.Indexer.add_document_terms ix ~doc_id:i terms) docs;
           Inquery.Indexer.posting_count ix));
    Test.make ~name:"decode sample record"
      (Staged.stage (fun () ->
           let f = Lazy.force fixture in
           Inquery.Postings.fold_docs f.sample_record ~init:0 ~f:(fun acc ~doc:_ ~tf -> acc + tf)));
  ]

(* Figure 2: the query-set term path — parse plus dictionary probes. *)
let bench_fig2 =
  [
    Test.make ~name:"parse structured query"
      (Staged.stage (fun () ->
           Inquery.Query.parse_exn "#wsum( 2 ba 1 #phrase( be bi ) 1 #or( bo bu ce ) )"));
    Test.make ~name:"dictionary find"
      (Staged.stage (fun () ->
           let f = Lazy.force fixture in
           incr counter;
           Inquery.Dictionary.find f.dict
             (Collections.Synth.core_term ~rank:(1 + (!counter land 255)))));
    Test.make ~name:"porter stem" (Staged.stage (fun () -> Inquery.Stemmer.stem "generalizations"));
  ]

(* Tables 3/4/5: the record-lookup paths of the three versions. *)
let bench_tables345 =
  [
    Test.make ~name:"btree lookup"
      (Staged.stage (fun () ->
           let f = Lazy.force fixture in
           Btree.lookup f.tree (next_entry f).Inquery.Dictionary.id));
    Test.make ~name:"mneme lookup, no cache"
      (Staged.stage (fun () ->
           let f = Lazy.force fixture in
           f.mneme_nocache.Core.Index_store.fetch (next_entry f)));
    Test.make ~name:"mneme lookup, cache"
      (Staged.stage (fun () ->
           let f = Lazy.force fixture in
           f.mneme_cache.Core.Index_store.fetch (next_entry f)));
    Test.make ~name:"full query (btree engine)"
      (Staged.stage (fun () ->
           let f = Lazy.force fixture in
           Core.Engine.run_query_string ~top_k:10 f.engine "#sum( ba be bi bo bu )"));
  ]

(* Table 6 / Figure 3: buffer manager fault path. *)
let bench_table6 =
  let buffer = lazy (Mneme.Buffer_pool.create ~name:"bench" ~capacity:(1 lsl 20) ()) in
  let seg = Bytes.make 8192 'x' in
  [
    Test.make ~name:"buffer fault (hit)"
      (Staged.stage (fun () ->
           let b = Lazy.force buffer in
           Mneme.Buffer_pool.fault b ~pseg:1 ~load:(fun () -> seg)));
    Test.make ~name:"buffer fault (miss + evict)"
      (Staged.stage (fun () ->
           let b = Lazy.force buffer in
           incr counter;
           (* 8 KB segments through a 1 MB buffer: steady-state misses. *)
           Mneme.Buffer_pool.fault b ~pseg:(2 + (!counter land 1023)) ~load:(fun () -> seg)));
  ]

(* Top-k pruning: the format-v2 skip-block + max-score DAAT path
   against exhaustive document-at-a-time evaluation. *)
let topk_query = "#sum( ba be bi bo bu ce ci co )"
let exhaustive = Inquery.Planner.Forced Inquery.Planner.Exhaustive

let bench_topk =
  [
    Test.make ~name:"topk k=10 (pruned)"
      (Staged.stage (fun () ->
           let f = Lazy.force fixture in
           Core.Engine.run_topk_string ~k:10 f.engine topk_query));
    Test.make ~name:"topk k=10 (exhaustive)"
      (Staged.stage (fun () ->
           let f = Lazy.force fixture in
           Core.Engine.run_topk_string ~plan:exhaustive ~k:10 f.engine topk_query));
    Test.make ~name:"cursor seek via skip table"
      (Staged.stage (fun () ->
           let f = Lazy.force fixture in
           let cur = Inquery.Postings.cursor f.sample_record in
           incr counter;
           Inquery.Postings.cursor_seek cur (1 + (!counter land 1023));
           Inquery.Postings.cur_doc cur));
  ]

let topk_summary () =
  let f = Lazy.force fixture in
  let ex = Core.Engine.run_topk_string ~plan:exhaustive ~k:10 f.engine topk_query in
  let pr = Core.Engine.run_topk_string ~audit:true ~k:10 f.engine topk_query in
  Printf.printf
    "\n[topk pruning, k=10] postings decoded: exhaustive %d, pruned %d (%.2fx); blocks \
     skipped %d, seeks %d, audit passed\n"
    ex.Core.Engine.topk_postings_decoded pr.Core.Engine.topk_postings_decoded
    (float_of_int ex.Core.Engine.topk_postings_decoded
    /. float_of_int (max 1 pr.Core.Engine.topk_postings_decoded))
    pr.Core.Engine.topk_blocks_skipped pr.Core.Engine.topk_seeks

(* Cost-based planning: what a plan decision costs (header statistics
   only, records memoized), and the intersection-first executors against
   the exhaustive baseline on conjunctive / positional queries. *)
let plan_stats_of =
  lazy
    (let f = Lazy.force fixture in
     let memo = Hashtbl.create 16 in
     fun term ->
       match Hashtbl.find_opt memo term with
       | Some s -> s
       | None ->
         let s =
           match Inquery.Dictionary.find f.dict term with
           | None -> None
           | Some e -> (
             match f.mneme_cache.Core.Index_store.fetch e with
             | None -> None
             | Some r -> Some (Inquery.Postings.record_stats r))
         in
         Hashtbl.add memo term s;
         s)

let plan_and_query = "#and( ba be bi )"
let plan_phrase_query = "#phrase( ba be )"

let bench_plan =
  let parsed = lazy (Inquery.Query.parse_exn topk_query) in
  [
    Test.make ~name:"planner decide (flat, 8 terms)"
      (Staged.stage (fun () ->
           let stats_of = Lazy.force plan_stats_of in
           Inquery.Planner.decide ~stats_of ~k:10 (Lazy.force parsed)));
    Test.make ~name:"#and k=10 (intersect)"
      (Staged.stage (fun () ->
           let f = Lazy.force fixture in
           Core.Engine.run_topk_string ~k:10 f.engine plan_and_query));
    Test.make ~name:"#and k=10 (exhaustive)"
      (Staged.stage (fun () ->
           let f = Lazy.force fixture in
           Core.Engine.run_topk_string ~plan:exhaustive ~k:10 f.engine plan_and_query));
    Test.make ~name:"#phrase k=10 (intersect)"
      (Staged.stage (fun () ->
           let f = Lazy.force fixture in
           Core.Engine.run_topk_string ~k:10 f.engine plan_phrase_query));
    Test.make ~name:"#phrase k=10 (exhaustive)"
      (Staged.stage (fun () ->
           let f = Lazy.force fixture in
           Core.Engine.run_topk_string ~plan:exhaustive ~k:10 f.engine plan_phrase_query));
  ]

let plan_summary () =
  let f = Lazy.force fixture in
  Printf.printf "\n[query planner, k=10]\n";
  List.iter
    (fun (cls, q) ->
      let ex = Core.Engine.run_topk_string ~plan:exhaustive ~k:10 f.engine q in
      let au = Core.Engine.run_topk_string ~audit:true ~k:10 f.engine q in
      Printf.printf
        "  %-12s plan %-10s bytes: exhaustive %7d, auto %7d (%.2fx), estimated %7d; audit \
         passed\n"
        cls
        (Inquery.Planner.plan_name au.Core.Engine.topk_plan)
        ex.Core.Engine.topk_bytes_read au.Core.Engine.topk_bytes_read
        (float_of_int ex.Core.Engine.topk_bytes_read
        /. float_of_int (max 1 au.Core.Engine.topk_bytes_read))
        au.Core.Engine.topk_est_bytes)
    [
      ("flat", topk_query);
      ("conjunctive", plan_and_query);
      ("phrase", plan_phrase_query);
      ("window", "#uw5( ba be )");
    ]

(* Tiered read-path caches: the probe costs the hot path pays, and a
   cold decode against its cache-served replay. *)
let bench_cache =
  let warm =
    lazy
      (let f = Lazy.force fixture in
       let bc = Util.Block_cache.create ~capacity_bytes:(1 lsl 22) ~name:"bench" () in
       (* Warm every block of the sample record under (src 0, epoch 0). *)
       let cur = Inquery.Postings.cursor ~cache:(bc, 0, 0) f.sample_record in
       while Inquery.Postings.cur_doc cur < max_int do
         Inquery.Postings.cursor_next cur
       done;
       let rc = Core.Result_cache.create ~name:"bench" () in
       Core.Result_cache.insert rc ~key:"q|k=10" ~epoch:0 ~coverage:Core.Result_cache.Full
         ~cost:512 [ (1, 0.42) ];
       (bc, rc))
  in
  [
    Test.make ~name:"block cache probe (hit)"
      (Staged.stage (fun () ->
           let bc, _ = Lazy.force warm in
           Util.Block_cache.find bc ~src:0 ~blk:0 ~epoch:0));
    Test.make ~name:"result cache probe (hit)"
      (Staged.stage (fun () ->
           let _, rc = Lazy.force warm in
           Core.Result_cache.find rc ~key:"q|k=10" ~epoch:0));
    Test.make ~name:"cursor walk, cold decode"
      (Staged.stage (fun () ->
           let f = Lazy.force fixture in
           let cur = Inquery.Postings.cursor f.sample_record in
           while Inquery.Postings.cur_doc cur < max_int do
             Inquery.Postings.cursor_next cur
           done));
    Test.make ~name:"cursor walk, block-cache served"
      (Staged.stage (fun () ->
           let f = Lazy.force fixture in
           let bc, _ = Lazy.force warm in
           let cur = Inquery.Postings.cursor ~cache:(bc, 0, 0) f.sample_record in
           while Inquery.Postings.cur_doc cur < max_int do
             Inquery.Postings.cursor_next cur
           done));
  ]

(* Multicore serving: the work-stealing deque ops on the executor's hot
   path, and the per-query serve cost through a parallel worker session. *)
let bench_parallel =
  let deque = lazy (Util.Wsq.create ~capacity:4096 ~dummy:(-1)) in
  [
    Test.make ~name:"wsq push+pop (owner fast path)"
      (Staged.stage (fun () ->
           let q = Lazy.force deque in
           Util.Wsq.push q 7;
           Util.Wsq.pop q));
    Test.make ~name:"wsq push+steal (thief path)"
      (Staged.stage (fun () ->
           let q = Lazy.force deque in
           Util.Wsq.push q 7;
           Util.Wsq.steal q));
  ]

(* The parallel and shard summaries' models are not paper collections,
   so [Presets.query_sets] has no set for them: both draw flat queries
   shaped like CACM's. *)
let summary_queries model ~n =
  Collections.Querygen.generate model
    (Collections.Querygen.make ~set_name:model.Collections.Docmodel.name ~n_queries:n
       ~mean_terms:8.0 ~pool_size:120 ~pool_top_bias:300 ~fresh_prob:0.20 ~seed:201 ())

let parallel_summary () =
  let model =
    Collections.Docmodel.make ~name:"par" ~n_docs:800 ~core_vocab:4000 ~mean_doc_len:100.0
      ~seed:29 ()
  in
  let prepared = Core.Experiment.prepare model in
  let queries = summary_queries model ~n:16 in
  let base = ref 0.0 in
  Printf.printf "\n[parallel query serving, %d queries]\n" (List.length queries);
  List.iter
    (fun domains ->
      let r =
        Core.Parallel.run_query_set ~domains ~audit:true prepared Core.Experiment.Mneme_cache
          ~queries
      in
      if domains = 1 then base := r.Core.Parallel.sim_makespan_ms;
      Printf.printf
        "  %d domain(s): makespan %8.1f sim-ms (%.2fx), serial work %8.1f sim-ms, %d steals, \
         audit passed\n"
        domains r.Core.Parallel.sim_makespan_ms
        (if r.Core.Parallel.sim_makespan_ms > 0.0 then !base /. r.Core.Parallel.sim_makespan_ms
         else 0.0)
        r.Core.Parallel.sim_serial_ms r.Core.Parallel.steals)
    [ 1; 2; 4 ]

(* Doc-partitioned scatter-gather: per-shard-count makespan (the
   slowest scatter leg), postings decoded with the global top-k bound
   threaded through the scatter vs without, and a bit-identity check of
   every merged ranking against the unsharded engine. *)
let shard_summary () =
  let model =
    Collections.Docmodel.make ~name:"shard" ~n_docs:800 ~core_vocab:4000 ~mean_doc_len:100.0
      ~seed:29 ()
  in
  let prepared = Core.Experiment.prepare model in
  let queries = summary_queries model ~n:12 in
  let engine = Core.Experiment.open_engine prepared Core.Experiment.Mneme_cache in
  let oracle =
    List.map
      (fun q ->
        List.map
          (fun r -> (r.Inquery.Ranking.doc, r.Inquery.Ranking.score))
          (Core.Engine.run_topk_string ~k:10 engine q).Core.Engine.topk_ranked)
      queries
  in
  let decoded_of ~global_bound shards =
    let c = Core.Shard.create ~shard_replicas:1 ~global_bound ~shards prepared in
    let makespan = ref 0.0 and decoded = ref 0 and exact = ref true in
    List.iter2
      (fun q gold ->
        match Core.Shard.run_query_string ~top_k:10 c q with
        | Error _ -> exact := false
        | Ok res ->
          makespan := !makespan +. res.Core.Shard.elapsed_ms;
          List.iter
            (fun (rep : Core.Shard.shard_report) ->
              decoded := !decoded + rep.Core.Shard.r_postings_decoded)
            res.Core.Shard.reports;
          let got =
            List.map
              (fun r -> (r.Inquery.Ranking.doc, r.Inquery.Ranking.score))
              res.Core.Shard.ranked
          in
          if (not res.Core.Shard.complete) || got <> gold then exact := false)
      queries oracle;
    (!makespan, !decoded, !exact)
  in
  let base = ref 0.0 in
  Printf.printf "\n[sharded scatter-gather, %d queries, top-10]\n" (List.length queries);
  List.iter
    (fun shards ->
      let makespan, decoded, exact = decoded_of ~global_bound:true shards in
      let _, decoded_nb, _ = decoded_of ~global_bound:false shards in
      if shards = 1 then base := makespan;
      Printf.printf
        "  %d shard(s): makespan %8.1f sim-ms (%.2fx), %7d postings decoded (%7d without \
         bound), %s\n"
        shards makespan
        (if makespan > 0.0 then !base /. makespan else 0.0)
        decoded decoded_nb
        (if exact then "bit-identical to unsharded" else "MISMATCH"))
    [ 1; 2; 4 ]

(* Snapshot isolation: what one epoch publication costs, journaled
   (sealed root + header switch in one transaction) vs unjournaled
   (in-memory publish), and what a pinned read costs over a live one.
   Each mutation benchmark runs a steady-state add+delete+gc cycle so
   the store does not grow across iterations. *)
let epoch_fixture journal =
  lazy
    (let file = if journal then "bench-epoch-j.mneme" else "bench-epoch.mneme" in
     let journal = if journal then Some (file ^ ".log") else None in
     let live = Core.Live_index.create_mneme ?journal (Vfs.create ()) ~file () in
     for i = 0 to 19 do
       ignore
         (Core.Live_index.add_document live
            (Printf.sprintf "alpha beta gamma doc%d term%d term%d" i (i mod 7) (i mod 11)))
     done;
     live)

let epoch_cycle live =
  let id = Core.Live_index.add_document live "alpha beta gamma delta epsilon" in
  ignore (Core.Live_index.delete_document live id);
  ignore (Core.Live_index.gc live)

let bench_epoch =
  let plain = epoch_fixture false in
  let journaled = epoch_fixture true in
  [
    Test.make ~name:"epoch publish cycle (unjournaled)"
      (Staged.stage (fun () -> epoch_cycle (Lazy.force plain)));
    Test.make ~name:"epoch publish cycle (journaled)"
      (Staged.stage (fun () -> epoch_cycle (Lazy.force journaled)));
    Test.make ~name:"search (latest epoch)"
      (Staged.stage (fun () -> Core.Live_index.search ~top_k:10 (Lazy.force plain) "alpha"));
    Test.make ~name:"pin + search_pinned + release"
      (Staged.stage (fun () ->
           let live = Lazy.force plain in
           let p = Core.Live_index.pin live in
           let r = Core.Live_index.search_pinned ~top_k:10 live p "alpha" in
           Core.Live_index.release live p;
           r));
  ]

(* Online ingestion: what a WAL-acknowledged add costs, a budgeted merge
   fold, and a union query with memory segments pending.  The add
   benchmark drains on backpressure so the buffer stays steady-state
   across iterations. *)
let ingest_fixture =
  lazy
    (let t = Core.Ingest.create (Vfs.create ()) ~file:"bench-ingest.mneme" () in
     for i = 0 to 19 do
       ignore
         (Core.Ingest.add_document t
            (Printf.sprintf "alpha beta gamma doc%d term%d term%d" i (i mod 7) (i mod 11)))
     done;
     t)

let bench_ingest =
  let fix = ingest_fixture in
  let budget = Mneme.Budget.create ~max_bytes:4096 () in
  [
    Test.make ~name:"add_document (WAL fsync ack)"
      (Staged.stage (fun () ->
           let t = Lazy.force fix in
           match Core.Ingest.add_document t "alpha beta gamma delta epsilon" with
           | Core.Ingest.Acked _ -> ()
           | Core.Ingest.Overloaded -> Core.Ingest.drain t));
    Test.make ~name:"add + budgeted merge step"
      (Staged.stage (fun () ->
           let t = Lazy.force fix in
           ignore (Core.Ingest.add_document t "alpha beta gamma delta epsilon");
           ignore (Core.Ingest.merge_step ~budget t)));
    Test.make ~name:"union search (segments pending)"
      (Staged.stage (fun () -> Core.Ingest.search ~top_k:10 (Lazy.force fix) "alpha"));
  ]

let ingest_summary () =
  let vfs = Vfs.create () in
  let t =
    Core.Ingest.create vfs
      ~config:{ Core.Ingest.default_config with seal_bytes = 4096 }
      ~file:"sum-ingest.mneme" ()
  in
  let model =
    Collections.Docmodel.make ~name:"ingest" ~n_docs:400 ~core_vocab:800 ~mean_doc_len:60.0
      ~seed:31 ()
  in
  let budget = Mneme.Budget.create ~max_bytes:8192 () in
  let clock = Vfs.clock vfs in
  let query_ms label t =
    (* mean simulated latency of one union query under the given state *)
    let queries = [ "alpha"; "#sum( alpha beta gamma )"; "beta" ] in
    Vfs.purge_os_cache vfs;
    let before = Vfs.Clock.snapshot clock in
    List.iter (fun q -> ignore (Core.Ingest.search ~top_k:10 t q)) queries;
    let d = Vfs.Clock.diff ~later:(Vfs.Clock.snapshot clock) ~earlier:before in
    let ms = Vfs.Clock.wall_ms d /. float_of_int (List.length queries) in
    Printf.printf "  query latency %-24s %8.3f sim-ms\n" label ms
  in
  let text_bytes = ref 0 in
  let added = ref 0 in
  let c0 = Vfs.counters vfs in
  let t0 = Vfs.Clock.snapshot clock in
  Seq.iter
    (fun doc ->
      let text = "alpha beta gamma " ^ Collections.Synth.document_text doc in
      text_bytes := !text_bytes + String.length text;
      (match Core.Ingest.add_document t text with
      | Core.Ingest.Acked _ -> incr added
      | Core.Ingest.Overloaded -> Core.Ingest.drain ~budget t);
      if !added mod 8 = 0 then ignore (Core.Ingest.merge_step ~budget t))
    (Collections.Synth.documents model);
  let ingest_ms = Vfs.Clock.wall_ms (Vfs.Clock.diff ~later:(Vfs.Clock.snapshot clock) ~earlier:t0) in
  Printf.printf "\n[online ingestion, %d documents, %d bytes of text]\n" !added !text_bytes;
  Printf.printf "  absorb throughput %26.0f docs per sim-second\n"
    (float_of_int !added /. (ingest_ms /. 1000.0));
  query_ms "(segments pending)" t;
  let d0 = Vfs.Clock.snapshot clock in
  Core.Ingest.drain ~budget t;
  let drain_ms = Vfs.Clock.wall_ms (Vfs.Clock.diff ~later:(Vfs.Clock.snapshot clock) ~earlier:d0) in
  query_ms "(drained, buffers warm)" t;
  let c1 = Vfs.diff_counters ~later:(Vfs.counters vfs) ~earlier:c0 in
  let s = Core.Ingest.stats t in
  Printf.printf
    "  merge: %d seals, %d folds, %.2fx write amplification (%d bytes written / %d text), \
     drain %.1f sim-ms\n"
    s.Core.Ingest.seals s.Core.Ingest.folds
    (float_of_int c1.Vfs.bytes_written /. float_of_int (max 1 !text_bytes))
    c1.Vfs.bytes_written !text_bytes drain_ms

let run_micro () =
  let groups =
    [
      ("table1+fig1: build & coding", bench_table1);
      ("fig2: query term path", bench_fig2);
      ("tables 3-5: lookup paths", bench_tables345);
      ("table6+fig3: buffer manager", bench_table6);
      ("topk: pruned vs exhaustive DAAT", bench_topk);
      ("plan: cost-based executor choice", bench_plan);
      ("cache: tiered read-path probes", bench_cache);
      ("parallel: work-stealing deque", bench_parallel);
      ("epoch: snapshot-isolated mutation", bench_epoch);
      ("ingest: WAL buffer & budgeted merge", bench_ingest);
    ]
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.4) ~stabilize:false () in
  let instances = Instance.[ monotonic_clock ] in
  print_endline "=== Bechamel micro-benchmarks (ns per call) ===";
  List.iter
    (fun (group, tests) ->
      Printf.printf "\n[%s]\n" group;
      let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"g" tests) in
      let results = Analyze.all ols Instance.monotonic_clock raw in
      let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
      List.iter
        (fun (name, ols) ->
          match Analyze.OLS.estimates ols with
          | Some (est :: _) -> Printf.printf "  %-34s %12.1f ns\n" name est
          | Some [] | None -> Printf.printf "  %-34s (no estimate)\n" name)
        (List.sort compare rows))
    groups;
  print_newline ()

(* ------------------------------------------------------------------ *)

let () =
  let scale =
    match Sys.getenv_opt "REPRO_SCALE" with
    | Some s -> ( try float_of_string s with Failure _ -> 1.0)
    | None -> 1.0
  in
  let skip_micro = Sys.getenv_opt "REPRO_SKIP_MICRO" = Some "1" in
  if not skip_micro then begin
    run_micro ();
    topk_summary ();
    plan_summary ();
    parallel_summary ();
    shard_summary ();
    ingest_summary ()
  end;
  let progress m = Printf.eprintf "  %s\n%!" m in
  Printf.printf "=== Paper reproduction (scale %.2f, simulated 1993 hardware) ===\n%!" scale;
  let ctx = Core.Paper.create_ctx ~progress ~scale () in
  List.iter
    (fun (label, table) ->
      print_newline ();
      print_endline label;
      Util.Tables.print table)
    (Core.Paper.all ctx);
  if Sys.getenv_opt "REPRO_SKIP_ABLATIONS" <> Some "1" then begin
    Printf.printf "\n=== Ablations (design-choice studies; fixed small collection) ===\n%!";
    let actx = Core.Ablation.create ~progress () in
    List.iter
      (fun (label, table) ->
        print_newline ();
        print_endline label;
        Util.Tables.print table)
      (Core.Ablation.all actx)
  end
