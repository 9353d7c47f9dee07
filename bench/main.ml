(* Bechamel micro-benchmarks, in host nanoseconds per call: one group
   per paper table/figure, measuring the operation whose cost that table
   aggregates (record lookups for Tables 3-5, buffer faults for Table 6
   and Figure 3, index construction paths for Table 1 and Figure 1,
   query-set term traffic for Figure 2), then one group per serving
   subsystem.  The tables and figures themselves are `repro tables`;
   the end-to-end benchmark is perfbench/.

   dune exec bench/main.exe *)

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

(* Read-path caches: the result-cache probe the hot path pays, and the
   decode every cursor walk pays. *)
let bench_cache =
  let warm =
    lazy
      (let rc = Core.Result_cache.create ~capacity_bytes:(1 lsl 20) in
       Core.Result_cache.insert rc ~key:"q|k=10" ~epoch:0 ~cost:512 [ (1, 0.42) ];
       rc)
  in
  [
    Test.make ~name:"result cache probe (hit)"
      (Staged.stage (fun () -> Core.Result_cache.find (Lazy.force warm) ~key:"q|k=10" ~epoch:0));
    Test.make ~name:"cursor walk, decode"
      (Staged.stage (fun () ->
           let f = Lazy.force fixture in
           let cur = Inquery.Postings.cursor f.sample_record in
           while Inquery.Postings.cur_doc cur < max_int do
             Inquery.Postings.cursor_next cur
           done));
  ]

(* Multicore serving: the work-stealing deque ops on the executor's hot
   path. *)
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
    Test.make ~name:"pin + rank pinned + release"
      (Staged.stage (fun () ->
           let live = Lazy.force plain in
           let p = Core.Live_index.pin live in
           let r = Core.Live_index.rank ~top_k:10 live (Core.Live_index.pinned live p) "alpha" in
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

let () =
  let groups =
    [
      ("table1+fig1: build & coding", bench_table1);
      ("fig2: query term path", bench_fig2);
      ("tables 3-5: lookup paths", bench_tables345);
      ("table6+fig3: buffer manager", bench_table6);
      ("topk: pruned vs exhaustive DAAT", bench_topk);
      ("plan: cost-based executor choice", bench_plan);
      ("cache: read-path probes", bench_cache);
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
