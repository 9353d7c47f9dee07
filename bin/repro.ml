(* Command-line driver for the reproduction: regenerate any table or
   figure, inspect a collection, or run ad-hoc queries.

   dune exec bin/repro.exe -- tables --scale 0.1
   dune exec bin/repro.exe -- stats legal
   dune exec bin/repro.exe -- run cacm --set 3 --version cache
   dune exec bin/repro.exe -- query cacm "#phrase( ba be )" *)

open Cmdliner

let scale_arg =
  let doc = "Collection scale factor (1.0 = calibrated defaults)." in
  Arg.(value & opt float 1.0 & info [ "scale" ] ~docv:"FACTOR" ~doc)

let collection_arg =
  let doc = "Collection preset: cacm, legal, tipster1 or tipster." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"COLLECTION" ~doc)

let progress msg = Printf.eprintf "%s\n%!" msg

(* --- tables ------------------------------------------------------- *)

let tables_cmd =
  let only =
    let doc =
      "Emit only the listed item(s): table1..table6, fig1..fig3 (repeatable)."
    in
    Arg.(value & opt_all string [] & info [ "only" ] ~docv:"ID" ~doc)
  in
  let run scale only =
    let ctx = Core.Paper.create_ctx ~progress ~scale () in
    let items =
      [
        ("fig1", fun () -> ("Figure 1: cumulative inverted-list size distribution (Legal)", Core.Paper.fig1 ctx));
        ("table1", fun () -> ("Table 1: document collection statistics (sizes in KB)", Core.Paper.table1 ctx));
        ("fig2", fun () -> ("Figure 2: frequency of use by record size, Legal query set 2", Core.Paper.fig2 ctx));
        ("table2", fun () -> ("Table 2: Mneme buffer sizes (KB)", Core.Paper.table2 ctx));
        ("table3", fun () -> ("Table 3: wall-clock times (seconds, simulated)", Core.Paper.table3 ctx));
        ("table4", fun () -> ("Table 4: system CPU plus I/O times (seconds, simulated)", Core.Paper.table4 ctx));
        ("table5", fun () -> ("Table 5: I/O statistics", Core.Paper.table5 ctx));
        ("table6", fun () -> ("Table 6: buffer hit rates (Mneme, Cache)", Core.Paper.table6 ctx));
        ("fig3", fun () -> ("Figure 3: large-object buffer hit rate vs size", Core.Paper.fig3 ctx));
      ]
    in
    let wanted =
      match only with
      | [] -> items
      | ids ->
        List.filter_map
          (fun id ->
            match List.assoc_opt id items with
            | Some f -> Some (id, f)
            | None ->
              Printf.eprintf "unknown item %s (use table1..table6, fig1..fig3)\n" id;
              exit 2)
          ids
    in
    List.iter
      (fun (_, f) ->
        let label, table = f () in
        print_newline ();
        print_endline label;
        Util.Tables.print table)
      wanted
  in
  let doc = "Regenerate the paper's tables and figures." in
  Cmd.v (Cmd.info "tables" ~doc) Term.(const run $ scale_arg $ only)

(* --- ablations ------------------------------------------------------ *)

let ablations_cmd =
  let run scale =
    let ctx = Core.Ablation.create ~progress ~scale () in
    List.iter
      (fun (label, table) ->
        print_newline ();
        print_endline label;
        Util.Tables.print table)
      (Core.Ablation.all ctx)
  in
  let doc = "Run the design-choice ablation studies." in
  Cmd.v (Cmd.info "ablations" ~doc) Term.(const run $ scale_arg)

(* --- stats -------------------------------------------------------- *)

let stats_cmd =
  let run scale name =
    let model = Collections.Presets.find ~scale name in
    let prepared = Core.Experiment.prepare ~progress model in
    let ix = prepared.Core.Experiment.indexer in
    Printf.printf "collection        %s\n" name;
    Printf.printf "documents         %d\n" (Inquery.Indexer.document_count ix);
    Printf.printf "collection bytes  %d\n" (Inquery.Indexer.collection_bytes ix);
    Printf.printf "distinct terms    %d\n" (Inquery.Indexer.term_count ix);
    Printf.printf "postings          %d\n" (Inquery.Indexer.posting_count ix);
    Printf.printf "occurrences       %d\n" (Inquery.Indexer.occurrence_count ix);
    Printf.printf "avg doc length    %.1f\n" (Inquery.Indexer.avg_doc_length ix);
    Printf.printf "largest record    %d bytes\n" prepared.Core.Experiment.largest_record;
    Printf.printf "btree file        %d KB\n" (prepared.Core.Experiment.btree_size / 1024);
    Printf.printf "mneme file        %d KB\n" (prepared.Core.Experiment.mneme_size / 1024);
    let s, m, l = Core.Report.size_census prepared in
    Printf.printf "partition         %d small / %d medium / %d large\n" s m l
  in
  let doc = "Build a collection and print its index statistics." in
  Cmd.v (Cmd.info "stats" ~doc) Term.(const run $ scale_arg $ collection_arg)

(* --- run ---------------------------------------------------------- *)

let version_of_string = function
  | "btree" -> Ok Core.Experiment.Btree
  | "nocache" -> Ok Core.Experiment.Mneme_no_cache
  | "cache" -> Ok Core.Experiment.Mneme_cache
  | other -> Error (Printf.sprintf "unknown version %s (btree | nocache | cache)" other)

let run_cmd =
  let set_arg =
    let doc = "Query set number (as in the paper)." in
    Arg.(value & opt string "1" & info [ "set"; "s" ] ~docv:"SET" ~doc)
  in
  let version_arg =
    let doc = "Index version: btree, nocache or cache." in
    Arg.(value & opt string "cache" & info [ "version"; "v" ] ~docv:"VERSION" ~doc)
  in
  let run scale name set version =
    match version_of_string version with
    | Error msg ->
      Printf.eprintf "%s\n" msg;
      exit 2
    | Ok version ->
      let ctx = Core.Paper.create_ctx ~progress ~scale () in
      let r = Core.Paper.run ctx name set version in
      Printf.printf "collection   %s, query set %s, %s\n" name set
        (Core.Experiment.version_name version);
      Printf.printf "queries      %d\n" r.Core.Experiment.n_queries;
      Printf.printf "wall         %.2f s (simulated)\n" r.Core.Experiment.wall_s;
      Printf.printf "sys+io       %.2f s\n" r.Core.Experiment.sys_io_s;
      Printf.printf "engine cpu   %.2f s\n" r.Core.Experiment.engine_cpu_s;
      Printf.printf "I            %d disk inputs\n" r.Core.Experiment.io_inputs;
      Printf.printf "A            %.2f file accesses / lookup\n"
        (Core.Experiment.accesses_per_lookup r);
      Printf.printf "B            %.0f KB read\n" r.Core.Experiment.kbytes_read;
      List.iter
        (fun (pool, s) ->
          if s.Mneme.Buffer_pool.refs > 0 then
            Printf.printf "%-6s buffer %d refs, %d hits\n" pool s.Mneme.Buffer_pool.refs
              s.Mneme.Buffer_pool.hits)
        r.Core.Experiment.buffers
  in
  let doc = "Run one (collection, query set, version) experiment." in
  Cmd.v (Cmd.info "run" ~doc) Term.(const run $ scale_arg $ collection_arg $ set_arg $ version_arg)

(* --- fsck --------------------------------------------------------- *)

let fsck_cmd =
  let run scale name =
    let model = Collections.Presets.find ~scale name in
    let prepared = Core.Experiment.prepare ~progress model in
    let store =
      Mneme.Store.open_existing prepared.Core.Experiment.vfs prepared.Core.Experiment.mneme_file
    in
    List.iter
      (fun pname ->
        Mneme.Store.attach_buffer (Mneme.Store.pool store pname)
          (Mneme.Buffer_pool.create ~name:pname ~capacity:1_048_576 ()))
      [ "small"; "medium"; "large" ];
    (* Every object in the index file is a postings record, so fsck can
       validate payloads format-aware: header consistency, skip-table
       invariants, gap monotonicity. *)
    let report = Mneme.Check.run ~object_check:Inquery.Postings.validate store in
    Format.printf "%a@." Mneme.Check.pp_report report;
    let catalog = Core.Catalog.load prepared.Core.Experiment.vfs ~file:prepared.Core.Experiment.catalog_file in
    let fetch entry =
      let locator = entry.Inquery.Dictionary.locator in
      if locator < 0 then None else Mneme.Store.get_opt store locator
    in
    let problems = Core.Catalog.verify_records catalog ~fetch in
    (match problems with
    | [] -> Printf.printf "catalog: %d terms cross-checked, clean\n" (Inquery.Dictionary.size catalog.Core.Catalog.dict)
    | ps ->
      Printf.printf "catalog: %d problem(s):\n" (List.length ps);
      List.iter (fun (term, what) -> Printf.printf "  %s: %s\n" term what) ps);
    if not (Mneme.Check.ok report) || problems <> [] then exit 1
  in
  let doc =
    "Build a collection's Mneme store and verify its integrity, \
     including postings-format validation of every stored record and a \
     catalog/record cross-check."
  in
  Cmd.v (Cmd.info "fsck" ~doc) Term.(const run $ scale_arg $ collection_arg)

(* --- topk --------------------------------------------------------- *)

let topk_cmd =
  let collections_arg =
    let doc = "Collections to measure (default: all four)." in
    Arg.(value & pos_all string [] & info [] ~docv:"COLLECTION" ~doc)
  in
  let k_arg =
    let doc = "Result-list depth for the pruned evaluator." in
    Arg.(value & opt int 10 & info [ "k" ] ~docv:"K" ~doc)
  in
  let queries_arg =
    let doc = "Evaluate only the first N queries of each set." in
    Arg.(value & opt (some int) None & info [ "queries" ] ~docv:"N" ~doc)
  in
  let audit_arg =
    let doc =
      "Re-run the exhaustive evaluator after every pruned query and fail \
       if the rankings differ in any document or belief."
    in
    Arg.(value & flag & info [ "audit" ] ~doc)
  in
  let json_arg =
    let doc = "Also write the per-collection numbers as JSON to FILE." in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let run scale names k n_queries audit json_file =
    if k <= 0 then begin
      Printf.eprintf "topk: --k must be positive\n";
      exit 2
    end;
    let names =
      match names with [] -> [ "cacm"; "legal"; "tipster1"; "tipster" ] | ns -> ns
    in
    let rows =
      List.map
        (fun name ->
          let model = Collections.Presets.find ~scale name in
          let prepared = Core.Experiment.prepare ~progress model in
          let spec = Collections.Presets.topk_queries model in
          let queries = Collections.Querygen.generate model spec in
          let queries =
            match n_queries with
            | None -> queries
            | Some n -> List.filteri (fun i _ -> i < n) queries
          in
          (* Exhaustive baseline and pruned run use separate engine
             sessions so buffer state cannot leak between them. *)
          let exhaustive_decoded = ref 0 in
          let ex = Core.Experiment.open_engine prepared Core.Experiment.Mneme_cache in
          List.iter
            (fun q ->
              let r =
                Core.Engine.run_topk_string
                  ~plan:(Inquery.Planner.Forced Inquery.Planner.Exhaustive) ~k ex q
              in
              exhaustive_decoded := !exhaustive_decoded + r.Core.Engine.topk_postings_decoded)
            queries;
          let engine = Core.Experiment.open_engine prepared Core.Experiment.Mneme_cache in
          let decoded = ref 0 and total = ref 0 in
          let blocks = ref 0 and seeks = ref 0 and pruned_q = ref 0 in
          List.iter
            (fun q ->
              match Core.Engine.run_topk_string ~audit ~k engine q with
              | r ->
                decoded := !decoded + r.Core.Engine.topk_postings_decoded;
                total := !total + r.Core.Engine.topk_postings_total;
                blocks := !blocks + r.Core.Engine.topk_blocks_skipped;
                seeks := !seeks + r.Core.Engine.topk_seeks;
                if r.Core.Engine.topk_pruned then incr pruned_q
              | exception Inquery.Infnet.Audit_mismatch msg ->
                Printf.eprintf "topk: AUDIT FAILED on %s: %s\n  query: %s\n" name msg q;
                exit 1)
            queries;
          (name, List.length queries, !total, !exhaustive_decoded, !decoded, !blocks, !seeks,
           !pruned_q))
        names
    in
    Printf.printf "%-10s %8s %12s %12s %12s %8s %10s %8s %7s\n" "collection" "queries"
      "postings" "exhaustive" "pruned" "ratio" "blocks" "seeks" "pruned";
    List.iter
      (fun (name, nq, total, ex, dec, blocks, seeks, pq) ->
        let ratio = if dec > 0 then float_of_int ex /. float_of_int dec else infinity in
        Printf.printf "%-10s %8d %12d %12d %12d %7.2fx %10d %8d %4d/%d\n" name nq total ex dec
          ratio blocks seeks pq nq)
      rows;
    if audit then Printf.printf "audit: every pruned ranking matched the exhaustive one\n";
    match json_file with
    | None -> ()
    | Some file ->
      let oc = open_out file in
      let row_json (name, nq, total, ex, dec, blocks, seeks, pq) =
        Printf.sprintf
          "  { \"collection\": %S, \"queries\": %d, \"k\": %d, \"postings_total\": %d,\n\
          \    \"postings_decoded_exhaustive\": %d, \"postings_decoded_pruned\": %d,\n\
          \    \"blocks_skipped\": %d, \"seeks\": %d, \"queries_pruned\": %d,\n\
          \    \"audited\": %b }"
          name nq k total ex dec blocks seeks pq audit
      in
      Printf.fprintf oc "[\n%s\n]\n" (String.concat ",\n" (List.map row_json rows));
      close_out oc;
      Printf.printf "wrote %s\n" file
  in
  let doc =
    "Measure max-score top-k pruning against exhaustive \
     document-at-a-time evaluation on the flat (phrase-free) query sets: \
     postings decoded, skip blocks jumped, and optionally a \
     result-identity audit."
  in
  Cmd.v (Cmd.info "topk" ~doc)
    Term.(const run $ scale_arg $ collections_arg $ k_arg $ queries_arg $ audit_arg $ json_arg)

(* --- plan --------------------------------------------------------- *)

let plan_cmd =
  let collections_arg =
    let doc = "Collections to measure (default: all four)." in
    Arg.(value & pos_all string [] & info [] ~docv:"COLLECTION" ~doc)
  in
  let k_arg =
    let doc = "Result-list depth." in
    Arg.(value & opt int 10 & info [ "k" ] ~docv:"K" ~doc)
  in
  let queries_arg =
    let doc = "Evaluate only the first N queries of each set." in
    Arg.(value & opt (some int) None & info [ "queries" ] ~docv:"N" ~doc)
  in
  let audit_arg =
    let doc =
      "Audit every run — auto and both forced plans — against the \
       exhaustive evaluator and fail unless each ranking is bit-identical."
    in
    Arg.(value & flag & info [ "audit" ] ~doc)
  in
  let json_arg =
    let doc = "Also write the per-class numbers as JSON to FILE." in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let class_of q =
    match q with
    | Inquery.Query.And _ -> "conjunctive"
    | Inquery.Query.Phrase _ -> "phrase"
    | Inquery.Query.Od _ | Inquery.Query.Uw _ -> "window"
    | _ -> (
      match Inquery.Planner.shape_of q with
      | Inquery.Planner.Flat -> "flat"
      | _ -> "other")
  in
  let classes = [ "flat"; "conjunctive"; "phrase"; "window"; "other" ] in
  let run scale names k n_queries audit json_file =
    if k <= 0 then begin
      Printf.eprintf "plan: --k must be positive\n";
      exit 2
    end;
    let names =
      match names with [] -> [ "cacm"; "legal"; "tipster1"; "tipster" ] | ns -> ns
    in
    let rows =
      List.map
        (fun name ->
          let model = Collections.Presets.find ~scale name in
          let prepared = Core.Experiment.prepare ~progress model in
          let spec = Collections.Presets.planner_queries model in
          let queries = Collections.Querygen.generate model spec in
          let queries =
            match n_queries with
            | None -> queries
            | Some n -> List.filteri (fun i _ -> i < n) queries
          in
          let qclasses = List.map (fun q -> class_of (Inquery.Query.parse_exn q)) queries in
          (* One engine session per mode so buffer state cannot leak
             between the baseline and the measured runs. *)
          let run_mode choice =
            let engine = Core.Experiment.open_engine prepared Core.Experiment.Mneme_cache in
            List.map
              (fun q ->
                match Core.Engine.run_topk_string ~audit ~plan:choice ~k engine q with
                | r -> r
                | exception Inquery.Infnet.Audit_mismatch msg ->
                  Printf.eprintf "plan: AUDIT FAILED on %s: %s\n  query: %s\n" name msg q;
                  exit 1)
              queries
          in
          let ex = run_mode (Inquery.Planner.Forced Inquery.Planner.Exhaustive) in
          let ms = run_mode (Inquery.Planner.Forced Inquery.Planner.Maxscore) in
          let it = run_mode (Inquery.Planner.Forced Inquery.Planner.Intersect) in
          let auto = run_mode Inquery.Planner.Auto in
          (* Per-class aggregation.  The shape-dispatch baseline is the
             pre-planner policy: flat shapes take max-score, everything
             else runs exhaustive. *)
          let per_class =
            List.map
              (fun cls ->
                let sum field rs =
                  List.fold_left2
                    (fun acc c r -> if String.equal c cls then acc + field r else acc)
                    0 qclasses rs
                in
                let count = List.length (List.filter (String.equal cls) qclasses) in
                let bytes r = r.Core.Engine.topk_bytes_read in
                let shape_bytes =
                  List.fold_left2
                    (fun acc c (r_ms, r_ex) ->
                      if not (String.equal c cls) then acc
                      else if String.equal cls "flat" then acc + bytes r_ms
                      else acc + bytes r_ex)
                    0 qclasses (List.combine ms ex)
                in
                let plan_count p =
                  List.fold_left2
                    (fun acc c r ->
                      if String.equal c cls && r.Core.Engine.topk_plan = p then acc + 1
                      else acc)
                    0 qclasses auto
                in
                ( cls,
                  count,
                  (sum bytes ex, sum bytes ms, sum bytes it),
                  shape_bytes,
                  sum bytes auto,
                  sum (fun r -> r.Core.Engine.topk_est_bytes) auto,
                  ( plan_count Inquery.Planner.Maxscore,
                    plan_count Inquery.Planner.Intersect,
                    plan_count Inquery.Planner.Exhaustive ) ))
              classes
            |> List.filter (fun (_, count, _, _, _, _, _) -> count > 0)
          in
          (name, List.length queries, per_class))
        names
    in
    Printf.printf "%-10s %-12s %7s %12s %12s %12s %7s %12s %14s\n" "collection" "class"
      "queries" "exhaustive" "shape" "auto" "ratio" "auto est" "plans m/i/e";
    List.iter
      (fun (name, _, per_class) ->
        List.iteri
          (fun i (cls, count, (ex_b, _, _), shape_b, auto_b, est_b, (pm, pi, pe)) ->
            let ratio =
              if auto_b > 0 then float_of_int shape_b /. float_of_int auto_b else infinity
            in
            Printf.printf "%-10s %-12s %7d %12d %12d %12d %6.2fx %12d %8d/%d/%d\n"
              (if i = 0 then name else "")
              cls count ex_b shape_b auto_b ratio est_b pm pi pe)
          per_class)
      rows;
    if audit then
      Printf.printf "audit: every plan's ranking matched the exhaustive one bit-for-bit\n";
    match json_file with
    | None -> ()
    | Some file ->
      let oc = open_out file in
      let class_json (cls, count, (ex_b, ms_b, it_b), shape_b, auto_b, est_b, (pm, pi, pe)) =
        let ratio =
          if auto_b > 0 then float_of_int shape_b /. float_of_int auto_b else 0.0
        in
        Printf.sprintf
          "      { \"class\": %S, \"queries\": %d,\n\
          \        \"bytes\": { \"exhaustive\": %d, \"maxscore\": %d, \"intersect\": %d,\n\
          \                   \"shape_dispatch\": %d, \"auto\": %d },\n\
          \        \"ratio_shape_over_auto\": %.4f, \"auto_est_bytes\": %d,\n\
          \        \"auto_plans\": { \"maxscore\": %d, \"intersect\": %d, \"exhaustive\": %d } }"
          cls count ex_b ms_b it_b shape_b auto_b ratio est_b pm pi pe
      in
      let row_json (name, nq, per_class) =
        Printf.sprintf
          "  { \"collection\": %S, \"queries\": %d, \"k\": %d, \"audited\": %b,\n\
          \    \"classes\": [\n%s\n    ] }"
          name nq k audit
          (String.concat ",\n" (List.map class_json per_class))
      in
      Printf.fprintf oc "[\n%s\n]\n" (String.concat ",\n" (List.map row_json rows));
      close_out oc;
      Printf.printf "wrote %s\n" file
  in
  let doc =
    "Measure the cost-based query planner on the mixed-workload sets: \
     per-class record bytes decoded under the exhaustive baseline, the \
     old shape-based dispatch, and the planner's auto choice, with the \
     planner's own byte estimates alongside and an optional bit-identity \
     audit of every plan."
  in
  Cmd.v (Cmd.info "plan" ~doc)
    Term.(const run $ scale_arg $ collections_arg $ k_arg $ queries_arg $ audit_arg $ json_arg)

(* --- cache -------------------------------------------------------- *)

let cache_cmd =
  let collections_arg =
    let doc = "Collections to measure (default: all four)." in
    Arg.(value & pos_all string [] & info [] ~docv:"COLLECTION" ~doc)
  in
  let k_arg =
    let doc = "Ranked documents per query." in
    Arg.(value & opt int 10 & info [ "k" ] ~docv:"K" ~doc)
  in
  let queries_arg =
    let doc = "Evaluate only the first N queries of each set." in
    Arg.(value & opt (some int) None & info [ "queries" ] ~docv:"N" ~doc)
  in
  let passes_arg =
    let doc =
      "Replays of the query set (the reuse the result cache exists for); \
       every pass after the first should serve from the result cache."
    in
    Arg.(value & opt int 3 & info [ "passes" ] ~docv:"N" ~doc)
  in
  let audit_arg =
    let doc =
      "Re-run every query with both caches disabled and fail unless the \
       rankings are bit-identical, then run the churn torture: random \
       add/delete mutations with pinned epochs read back through the \
       caches."
    in
    Arg.(value & flag & info [ "audit" ] ~doc)
  in
  let json_arg =
    let doc = "Write the per-collection numbers as JSON to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let fingerprint ranked =
    List.map
      (fun r -> (r.Inquery.Ranking.doc, Printf.sprintf "%.9f" r.Inquery.Ranking.score))
      ranked
  in
  let run scale names k n_queries passes audit json_file =
    if k <= 0 || passes <= 0 then begin
      Printf.eprintf "cache: --k and --passes must be positive\n";
      exit 2
    end;
    let names =
      match names with [] -> [ "cacm"; "legal"; "tipster1"; "tipster" ] | ns -> ns
    in
    let rows =
      List.map
        (fun name ->
          let model = Collections.Presets.find ~scale name in
          let prepared = Core.Experiment.prepare ~progress model in
          let spec = Collections.Presets.topk_queries model in
          let queries = Collections.Querygen.generate model spec in
          let queries =
            match n_queries with
            | None -> queries
            | Some n -> List.filteri (fun i _ -> i < n) queries
          in
          (* One frontend per configuration so neither cache state nor
             buffer state leaks between the cached run and the
             caches-off baseline.  The OS cache is purged before every
             pass in both runs, so bytes read measure what each
             configuration must physically fetch. *)
          let measure ~result_bytes ~block_bytes =
            let fe =
              Core.Frontend.of_prepared prepared ~names:[ "a" ]
                ~result_cache_bytes:result_bytes ~block_cache_bytes:block_bytes
            in
            let vfs = Core.Frontend.replica_vfs fe ~name:"a" in
            let c0 = Vfs.counters vfs in
            let decoded = ref 0 and result_hits = ref 0 in
            let rankings = ref [] in
            for _pass = 1 to passes do
              Vfs.purge_os_cache vfs;
              List.iter
                (fun q ->
                  let r = Core.Frontend.run_query_string ~top_k:k fe q in
                  decoded := !decoded + r.Core.Frontend.postings_decoded;
                  if r.Core.Frontend.cached then incr result_hits;
                  rankings := fingerprint r.Core.Frontend.ranked :: !rankings)
                queries
            done;
            let c1 = Vfs.diff_counters ~later:(Vfs.counters vfs) ~earlier:c0 in
            (fe, List.rev !rankings, !decoded, !result_hits, c1)
          in
          let fe, cached_rankings, dec_on, result_hits, on =
            measure ~result_bytes:(4 * 1024 * 1024) ~block_bytes:(8 * 1024 * 1024)
          in
          let _, plain_rankings, dec_off, _, off = measure ~result_bytes:0 ~block_bytes:0 in
          if audit then
            List.iteri
              (fun i (a, b) ->
                if a <> b then begin
                  Printf.eprintf
                    "cache: AUDIT FAILED on %s: query %d of pass %d ranks differently \
                     with caches on\n"
                    name (i mod List.length queries) (1 + (i / List.length queries));
                  exit 1
                end)
              (List.combine cached_rankings plain_rankings);
          let tiers = Core.Frontend.cache_tiers fe in
          (name, List.length queries, result_hits, tiers, dec_on, dec_off, on, off))
        names
    in
    (* Table-6-style tier hit-rate table: the buffer pool was the
       paper's only tier; the result cache and the block cache's decoded
       blocks sit above it, and its segment frames catch its misses. *)
    Printf.printf "%-10s %-8s %10s %10s %8s\n" "collection" "tier" "refs" "hits" "rate";
    List.iter
      (fun (name, _, _, tiers, _, _, _, _) ->
        List.iteri
          (fun i (tier, s) ->
            Printf.printf "%-10s %-8s %10d %10d %7.1f%%\n"
              (if i = 0 then name else "")
              tier s.Util.Cache_stats.refs s.Util.Cache_stats.hits
              (100.0 *. Util.Cache_stats.hit_rate s))
          tiers)
      rows;
    (* Fetches are the replica's file accesses: with caches on, a
       record read from a resident frame makes none. *)
    Printf.printf "\n%-10s %8s %7s %12s %12s %7s %12s %12s %7s %12s %12s %7s\n" "collection"
      "queries" "rhits" "decoded:off" "decoded:on" "ratio" "bytes:off" "bytes:on" "ratio"
      "fetches:off" "fetches:on" "ratio";
    List.iter
      (fun (name, nq, rhits, _, dec_on, dec_off, on, off) ->
        let ratio a b = float_of_int a /. float_of_int (max 1 b) in
        let bytes_off = off.Vfs.bytes_read and bytes_on = on.Vfs.bytes_read in
        let fetches_off = off.Vfs.file_accesses and fetches_on = on.Vfs.file_accesses in
        Printf.printf "%-10s %4dx%-3d %7d %12d %12d %6.2fx %12d %12d %6.2fx %12d %12d %6.2fx\n"
          name nq passes rhits dec_off dec_on (ratio dec_off dec_on) bytes_off bytes_on
          (ratio bytes_off bytes_on) fetches_off fetches_on (ratio fetches_off fetches_on))
      rows;
    let churn =
      if audit then begin
        let o = Core.Torture.run_cache () in
        Format.printf "%a@." Core.Torture.pp_cache_outcome o;
        if not (Core.Torture.cache_ok o) then begin
          Printf.eprintf "cache: churn torture found coherence problems\n";
          exit 1
        end;
        Printf.printf
          "audit: rankings bit-identical with caches off on %d collection(s); churn leg \
           clean\n"
          (List.length rows);
        Some o
      end
      else None
    in
    (match json_file with
    | None -> ()
    | Some file ->
      let oc = open_out file in
      let tier_json (tier, s) =
        Printf.sprintf
          "      { \"tier\": %S, \"refs\": %d, \"hits\": %d, \"evictions\": %d, \
           \"invalidations\": %d, \"resident_bytes\": %d, \"resident_entries\": %d }"
          tier s.Util.Cache_stats.refs s.Util.Cache_stats.hits s.Util.Cache_stats.evictions
          s.Util.Cache_stats.invalidations s.Util.Cache_stats.resident_bytes
          s.Util.Cache_stats.resident_entries
      in
      let row_json (name, nq, rhits, tiers, dec_on, dec_off, on, off) =
        Printf.sprintf
          "  { \"collection\": %S, \"queries\": %d, \"passes\": %d, \"k\": %d,\n\
          \    \"result_cache_hits\": %d,\n\
          \    \"postings_decoded\": { \"caches_off\": %d, \"caches_on\": %d },\n\
          \    \"bytes_read\": { \"caches_off\": %d, \"caches_on\": %d },\n\
          \    \"fetches\": { \"caches_off\": %d, \"caches_on\": %d },\n\
          \    \"tiers\": [\n%s\n    ],\n\
          \    \"audited\": %b }"
          name nq passes k rhits dec_off dec_on off.Vfs.bytes_read on.Vfs.bytes_read
          off.Vfs.file_accesses on.Vfs.file_accesses
          (String.concat ",\n" (List.map tier_json tiers))
          audit
      in
      let churn_json =
        match churn with
        | None -> ""
        | Some o ->
          Printf.sprintf
            ",\n\
            \  \"churn_audit\": { \"mutations\": %d, \"comparisons\": %d, \
             \"result_hits\": %d, \"block_hits\": %d, \"frame_hits\": %d, \
             \"invalidations\": %d, \"problems\": %d }"
            o.Core.Torture.ct_mutations o.Core.Torture.ct_comparisons
            o.Core.Torture.ct_result_hits o.Core.Torture.ct_block_hits
            o.Core.Torture.ct_frame_hits o.Core.Torture.ct_invalidations
            (List.length o.Core.Torture.ct_problems)
      in
      Printf.fprintf oc "{ \"collections\": [\n%s\n]%s\n}\n"
        (String.concat ",\n" (List.map row_json rows))
        churn_json;
      close_out oc;
      Printf.printf "wrote %s\n" file)
  in
  let doc =
    "Measure the tiered read-path caches on reuse-heavy query replays: \
     per-tier (result / block / frame / buffer) hit rates in the style \
     of the paper's Table 6, plus postings-decoded, bytes-read and \
     file-access deltas against a caches-off baseline, with an optional \
     bit-identity audit and churn torture."
  in
  Cmd.v (Cmd.info "cache" ~doc)
    Term.(const run $ scale_arg $ collections_arg $ k_arg $ queries_arg $ passes_arg
          $ audit_arg $ json_arg)

(* --- parallel ----------------------------------------------------- *)

let parallel_cmd =
  let collections_arg =
    let doc = "Collections to measure (default: all four)." in
    Arg.(value & pos_all string [] & info [] ~docv:"COLLECTION" ~doc)
  in
  let domains_arg =
    let doc = "Domain counts to sweep (repeatable; default 1, 2, 4, 8)." in
    Arg.(value & opt_all int [] & info [ "domains"; "d" ] ~docv:"N" ~doc)
  in
  let queries_arg =
    let doc = "Serve only the first N queries of each set." in
    Arg.(value & opt (some int) None & info [ "queries" ] ~docv:"N" ~doc)
  in
  let audit_arg =
    let doc =
      "After each parallel run, re-run the set serially and fail unless \
       every ranking is bit-identical (documents and beliefs)."
    in
    Arg.(value & flag & info [ "audit" ] ~doc)
  in
  let json_arg =
    let doc = "Also write the scaling numbers as JSON to FILE." in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let run scale names domains n_queries audit json_file =
    let domains = match domains with [] -> [ 1; 2; 4; 8 ] | ds -> ds in
    if List.exists (fun d -> d <= 0) domains then begin
      Printf.eprintf "parallel: every --domains must be positive\n";
      exit 2
    end;
    let names =
      match names with [] -> [ "cacm"; "legal"; "tipster1"; "tipster" ] | ns -> ns
    in
    let results =
      List.map
        (fun name ->
          let model = Collections.Presets.find ~scale name in
          let prepared = Core.Experiment.prepare ~progress model in
          let _, spec = List.hd (Collections.Presets.query_sets model) in
          let queries = Collections.Querygen.generate model spec in
          let queries =
            match n_queries with
            | None -> queries
            | Some n -> List.filteri (fun i _ -> i < n) queries
          in
          let reports =
            List.map
              (fun d ->
                match
                  Core.Parallel.run_query_set ~domains:d ~audit prepared
                    Core.Experiment.Mneme_cache ~queries
                with
                | r -> r
                | exception Core.Parallel.Audit_mismatch msg ->
                  Printf.eprintf "parallel: AUDIT FAILED on %s at %d domains: %s\n" name d msg;
                  exit 1)
              domains
          in
          (name, List.length queries, reports))
        names
    in
    Printf.printf "%-10s %8s %8s %12s %12s %9s %7s %10s\n" "collection" "queries" "domains"
      "serial ms" "makespan ms" "speedup" "steals" "real ms";
    List.iter
      (fun (name, nq, reports) ->
        let base =
          match reports with r :: _ -> r.Core.Parallel.sim_makespan_ms | [] -> 0.0
        in
        List.iter
          (fun (r : Core.Parallel.report) ->
            let speedup =
              if r.Core.Parallel.sim_makespan_ms > 0.0 then
                base /. r.Core.Parallel.sim_makespan_ms
              else 0.0
            in
            Printf.printf "%-10s %8d %8d %12.1f %12.1f %8.2fx %7d %10.1f\n" name nq
              r.Core.Parallel.domains r.Core.Parallel.sim_serial_ms
              r.Core.Parallel.sim_makespan_ms speedup r.Core.Parallel.steals
              r.Core.Parallel.real_elapsed_ms)
          reports)
      results;
    if audit then
      Printf.printf "audit: every parallel ranking matched the serial run bit-for-bit\n";
    match json_file with
    | None -> ()
    | Some file ->
      let oc = open_out file in
      let row_json name nq base (r : Core.Parallel.report) =
        let speedup =
          if r.Core.Parallel.sim_makespan_ms > 0.0 then base /. r.Core.Parallel.sim_makespan_ms
          else 0.0
        in
        Printf.sprintf
          "  { \"collection\": %S, \"queries\": %d, \"domains\": %d,\n\
          \    \"sim_serial_ms\": %.3f, \"sim_makespan_ms\": %.3f, \"speedup\": %.3f,\n\
          \    \"steals\": %d, \"real_elapsed_ms\": %.3f, \"audited\": %b }"
          name nq r.Core.Parallel.domains r.Core.Parallel.sim_serial_ms
          r.Core.Parallel.sim_makespan_ms speedup r.Core.Parallel.steals
          r.Core.Parallel.real_elapsed_ms r.Core.Parallel.audited
      in
      let rows =
        List.concat_map
          (fun (name, nq, reports) ->
            let base =
              match reports with r :: _ -> r.Core.Parallel.sim_makespan_ms | [] -> 0.0
            in
            List.map (row_json name nq base) reports)
          results
      in
      Printf.fprintf oc "[\n%s\n]\n" (String.concat ",\n" rows);
      close_out oc;
      Printf.printf "wrote %s\n" file
  in
  let doc =
    "Serve each collection's query set across 1/2/4/8 OCaml domains — \
     one session (private buffers, file copy, clock) per domain, \
     work-stealing distribution — and report the simulated-time scaling \
     table; --audit verifies bit-identical rankings against a serial run."
  in
  Cmd.v (Cmd.info "parallel" ~doc)
    Term.(const run $ scale_arg $ collections_arg $ domains_arg $ queries_arg $ audit_arg
          $ json_arg)

(* --- torture ------------------------------------------------------ *)

let torture_cmd =
  let seed_arg =
    let doc = "PRNG seed for the workload." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let docs_arg =
    let doc = "Objects allocated by the build transaction." in
    Arg.(value & opt int 12 & info [ "docs" ] ~docv:"N" ~doc)
  in
  let batches_arg =
    let doc = "Update transactions after the build." in
    Arg.(value & opt int 3 & info [ "batches" ] ~docv:"N" ~doc)
  in
  let run seed docs update_batches =
    if docs < 0 || update_batches < 0 then begin
      Printf.eprintf "torture: --docs and --batches must be non-negative\n";
      exit 2
    end;
    let outcome = Core.Torture.run ~seed ~docs ~update_batches () in
    Format.printf "%a@." Core.Torture.pp_outcome outcome;
    if outcome.Core.Torture.problems <> [] then exit 1
  in
  let doc =
    "Crash the journaled store at every physical I/O of an \
     index-build-and-update workload and audit each recovery."
  in
  Cmd.v (Cmd.info "torture" ~doc) Term.(const run $ seed_arg $ docs_arg $ batches_arg)

(* --- failover ----------------------------------------------------- *)

let failover_cmd =
  let seed_arg =
    let doc = "PRNG seed for the workload." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let docs_arg =
    let doc = "Documents indexed by the workload." in
    Arg.(value & opt int 12 & info [ "docs" ] ~docv:"N" ~doc)
  in
  let batches_arg =
    let doc = "Commit batches the build is split into." in
    Arg.(value & opt int 3 & info [ "batches" ] ~docv:"N" ~doc)
  in
  let standbys_arg =
    let doc = "Standby replicas shipping the primary's journal." in
    Arg.(value & opt int 2 & info [ "standbys" ] ~docv:"N" ~doc)
  in
  let run seed docs batches standbys =
    if docs <= 0 || batches <= 0 || standbys <= 0 then begin
      Printf.eprintf "failover: --docs, --batches and --standbys must be positive\n";
      exit 2
    end;
    let outcome = Core.Torture.run_failover ~seed ~docs ~batches ~standbys () in
    Format.printf "%a@." Core.Torture.pp_failover_outcome outcome;
    if outcome.Core.Torture.problems <> [] then exit 1
  in
  let doc =
    "Kill the primary of a journal-shipping replica group at every \
     physical I/O, promote the best standby, and audit that it serves \
     the committed prefix byte-identically."
  in
  Cmd.v (Cmd.info "failover" ~doc)
    Term.(const run $ seed_arg $ docs_arg $ batches_arg $ standbys_arg)

(* --- epoch -------------------------------------------------------- *)

let epoch_cmd =
  let seed_arg =
    let doc = "PRNG seed for the workload." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let docs_arg =
    let doc = "Documents the live-index workload indexes (deletions are interleaved)." in
    Arg.(value & opt int 8 & info [ "docs" ] ~docv:"N" ~doc)
  in
  let audit_arg =
    let doc =
      "Crash the workload at every physical I/O, recover each image, and audit that the \
       surviving root is wholly old or wholly new, fsck-clean, and gc-drainable."
    in
    Arg.(value & flag & info [ "audit" ] ~doc)
  in
  let json_arg =
    let doc = "Write the outcome as JSON to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let run seed docs audit json_file =
    if docs <= 0 then begin
      Printf.eprintf "epoch: --docs must be positive\n";
      exit 2
    end;
    let plan = Core.Torture.prepare_epoch ~seed ~docs () in
    let table = Core.Torture.epoch_table plan in
    Printf.printf "golden run: %d epochs published over %d documents, %d crash points\n"
      (Core.Torture.epoch_mutations plan)
      docs
      (Core.Torture.epoch_points plan);
    Printf.printf "%8s %10s %10s\n" "epoch" "documents" "terms";
    List.iter (fun (e, d, t) -> Printf.printf "%8d %10d %10d\n" e d t) table;
    let golden_problems = Core.Torture.epoch_golden_problems plan in
    List.iter (fun p -> Printf.printf "golden run problem: %s\n" p) golden_problems;
    let outcome = if audit then Some (Core.Torture.run_epoch ~seed ~docs ()) else None in
    (match outcome with
    | Some o -> Format.printf "%a@." Core.Torture.pp_epoch_outcome o
    | None -> ());
    (match json_file with
    | None -> ()
    | Some f ->
      let oc = open_out f in
      let table_json =
        String.concat ",\n"
          (List.map
             (fun (e, d, t) ->
               Printf.sprintf "    {\"epoch\": %d, \"documents\": %d, \"terms\": %d}" e d t)
             table)
      in
      let audit_json =
        match outcome with
        | None -> ""
        | Some o ->
          let problems_json =
            String.concat ",\n"
              (List.map
                 (fun (k, p) ->
                   Printf.sprintf "      {\"crash_at\": %d, \"problem\": %S}" k p)
                 o.Core.Torture.e_problems)
          in
          Printf.sprintf
            ",\n\
            \  \"audit\": {\n\
            \    \"points\": %d,\n\
            \    \"opened\": %d,\n\
            \    \"unopenable\": %d,\n\
            \    \"wholly_old\": %d,\n\
            \    \"wholly_new\": %d,\n\
            \    \"replayed\": %d,\n\
            \    \"discarded\": %d,\n\
            \    \"clean\": %d,\n\
            \    \"gc_reclaimed_objects\": %d,\n\
            \    \"problems\": [\n%s\n    ]\n\
            \  }"
            o.Core.Torture.e_points o.Core.Torture.e_opened o.Core.Torture.e_unopenable
            o.Core.Torture.e_wholly_old o.Core.Torture.e_wholly_new o.Core.Torture.e_replayed
            o.Core.Torture.e_discarded o.Core.Torture.e_clean o.Core.Torture.e_reclaimed
            problems_json
      in
      Printf.fprintf oc
        "{\n\
        \  \"seed\": %d,\n\
        \  \"docs\": %d,\n\
        \  \"mutations\": %d,\n\
        \  \"crash_points\": %d,\n\
        \  \"epochs\": [\n%s\n  ]%s\n\
         }\n"
        seed docs
        (Core.Torture.epoch_mutations plan)
        (Core.Torture.epoch_points plan)
        table_json audit_json;
      close_out oc);
    let problems =
      golden_problems <> []
      || match outcome with Some o -> o.Core.Torture.e_problems <> [] | None -> false
    in
    if problems then exit 1
  in
  let doc =
    "Publish epochs through a journaled live index (snapshot-isolated COW mutation) and, with \
     $(b,--audit), crash at every physical I/O proving torn-read-proof recovery and \
     pinned-epoch gc safety."
  in
  Cmd.v (Cmd.info "epoch" ~doc) Term.(const run $ seed_arg $ docs_arg $ audit_arg $ json_arg)

(* --- ingest ------------------------------------------------------- *)

let ingest_cmd =
  let seed_arg =
    let doc = "PRNG seed for the workload." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let docs_arg =
    let doc = "Documents the ingest workload adds (deletions and merges are interleaved)." in
    Arg.(value & opt int 8 & info [ "docs" ] ~docv:"N" ~doc)
  in
  let audit_arg =
    let doc =
      "Crash the workload at every physical I/O, recover each image with WAL replay, and \
       audit exactly-once durability: every acknowledged document present exactly once, \
       rankings byte-identical to the golden run at the recovered frontier, and the merge \
       resuming to a clean drain."
    in
    Arg.(value & flag & info [ "audit" ] ~doc)
  in
  let json_arg =
    let doc = "Write the outcome as JSON to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let run seed docs audit json_file =
    if docs <= 0 then begin
      Printf.eprintf "ingest: --docs must be positive\n";
      exit 2
    end;
    let plan = Core.Torture.prepare_ingest ~seed ~docs () in
    let table = Core.Torture.ingest_table plan in
    Printf.printf "golden run: %d operations over %d documents, %d crash points\n"
      (Core.Torture.ingest_ops plan)
      docs
      (Core.Torture.ingest_points plan);
    Printf.printf "%8s %10s %8s %10s\n" "op" "acked_seq" "folds" "documents";
    List.iter (fun (o, s, f, d) -> Printf.printf "%8d %10d %8d %10d\n" o s f d) table;
    let golden_problems = Core.Torture.ingest_golden_problems plan in
    List.iter (fun p -> Printf.printf "golden run problem: %s\n" p) golden_problems;
    let outcome = if audit then Some (Core.Torture.run_ingest ~seed ~docs ()) else None in
    (match outcome with
    | Some o -> Format.printf "%a@." Core.Torture.pp_ingest_outcome o
    | None -> ());
    (match json_file with
    | None -> ()
    | Some f ->
      let oc = open_out f in
      let table_json =
        String.concat ",\n"
          (List.map
             (fun (o, s, fo, d) ->
               Printf.sprintf
                 "    {\"op\": %d, \"acked_seq\": %d, \"folds\": %d, \"documents\": %d}" o s fo d)
             table)
      in
      let audit_json =
        match outcome with
        | None -> ""
        | Some o ->
          let problems_json =
            String.concat ",\n"
              (List.map
                 (fun (k, p) ->
                   Printf.sprintf "      {\"crash_at\": %d, \"problem\": %S}" k p)
                 o.Core.Torture.i_problems)
          in
          Printf.sprintf
            ",\n\
            \  \"audit\": {\n\
            \    \"points\": %d,\n\
            \    \"acked_ops\": %d,\n\
            \    \"folds\": %d,\n\
            \    \"opened\": %d,\n\
            \    \"unopenable\": %d,\n\
            \    \"wholly_old\": %d,\n\
            \    \"wholly_new\": %d,\n\
            \    \"replayed\": %d,\n\
            \    \"discarded\": %d,\n\
            \    \"clean\": %d,\n\
            \    \"wal_redelivered\": %d,\n\
            \    \"gc_reclaimed_objects\": %d,\n\
            \    \"problems\": [\n%s\n    ]\n\
            \  }"
            o.Core.Torture.i_points o.Core.Torture.i_acked o.Core.Torture.i_folds
            o.Core.Torture.i_opened o.Core.Torture.i_unopenable o.Core.Torture.i_wholly_old
            o.Core.Torture.i_wholly_new o.Core.Torture.i_replayed o.Core.Torture.i_discarded
            o.Core.Torture.i_clean o.Core.Torture.i_redelivered o.Core.Torture.i_reclaimed
            problems_json
      in
      Printf.fprintf oc
        "{\n\
        \  \"seed\": %d,\n\
        \  \"docs\": %d,\n\
        \  \"operations\": %d,\n\
        \  \"crash_points\": %d,\n\
        \  \"timeline\": [\n%s\n  ]%s\n\
         }\n"
        seed docs
        (Core.Torture.ingest_ops plan)
        (Core.Torture.ingest_points plan)
        table_json audit_json;
      close_out oc);
    let problems =
      golden_problems <> []
      || match outcome with Some o -> o.Core.Torture.i_problems <> [] | None -> false
    in
    if problems then exit 1
  in
  let doc =
    "Ingest documents online through the WAL-backed write buffer and budgeted merge and, \
     with $(b,--audit), crash at every physical I/O proving exactly-once document \
     durability: no acknowledged document lost or duplicated, rankings byte-identical at \
     the recovered frontier, merge resumed to a clean drain."
  in
  Cmd.v (Cmd.info "ingest" ~doc) Term.(const run $ seed_arg $ docs_arg $ audit_arg $ json_arg)

(* --- scrub -------------------------------------------------------- *)

let scrub_cmd =
  let seed_arg =
    let doc = "PRNG seed for the workload." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let docs_arg =
    let doc = "Documents indexed by the workload." in
    Arg.(value & opt int 12 & info [ "docs" ] ~docv:"N" ~doc)
  in
  let batches_arg =
    let doc = "Commit batches the build is split into." in
    Arg.(value & opt int 3 & info [ "batches" ] ~docv:"N" ~doc)
  in
  let standbys_arg =
    let doc = "Standby replicas shipping the primary's journal." in
    Arg.(value & opt int 2 & info [ "standbys" ] ~docv:"N" ~doc)
  in
  let bits_arg =
    let doc = "Distinct bits flipped inside each rotted segment." in
    Arg.(value & opt int 1 & info [ "bits" ] ~docv:"N" ~doc)
  in
  let no_crash_arg =
    let doc = "Skip the crash-during-repair enumeration (faster)." in
    Arg.(value & flag & info [ "no-crash-sweep" ] ~doc)
  in
  let budgets_arg =
    let doc =
      "Instead of the sweep, run the scrub-tax experiment: detect and \
       heal one rotted segment under each per-step byte BUDGET \
       (repeatable), reporting detection latency against foreground \
       query slowdown."
    in
    Arg.(value & opt_all int [] & info [ "budget" ] ~docv:"BUDGET" ~doc)
  in
  let run seed docs batches standbys bits no_crash budgets =
    if docs <= 0 || batches <= 0 || standbys <= 0 || bits <= 0 then begin
      Printf.eprintf "scrub: --docs, --batches, --standbys and --bits must be positive\n";
      exit 2
    end;
    if List.exists (fun b -> b <= 0) budgets then begin
      Printf.eprintf "scrub: every --budget must be positive\n";
      exit 2
    end;
    match budgets with
    | _ :: _ ->
      let rows = Core.Torture.scrub_budget_sweep ~seed ~docs ~batches ~standbys ~budgets () in
      Printf.printf "%10s %6s %10s %10s %10s %10s\n" "budget B" "steps" "detect ms" "stall ms"
        "heal ms" "query ms";
      List.iter
        (fun r ->
          Printf.printf "%10d %6d %10.2f %10.2f %10.2f %10.2f\n" r.Core.Torture.sw_budget
            r.Core.Torture.sw_steps r.Core.Torture.sw_detect_ms r.Core.Torture.sw_stall_ms
            r.Core.Torture.sw_heal_ms r.Core.Torture.sw_query_ms)
        rows
    | [] ->
      let outcome =
        Core.Torture.run_scrub ~seed ~docs ~batches ~standbys ~bits
          ~crash_sweep:(not no_crash) ()
      in
      Format.printf "%a@." Core.Torture.pp_scrub_outcome outcome;
      if not (Core.Torture.scrub_ok outcome) then exit 1
  in
  let doc =
    "Flip bits in every physical segment of a replicated store, one \
     member at a time, and audit that budgeted scrubbing plus replica \
     read-repair converges the group back to byte-identical, \
     query-identical stores — including when the repair itself is \
     crashed at every I/O."
  in
  Cmd.v (Cmd.info "scrub" ~doc)
    Term.(const run $ seed_arg $ docs_arg $ batches_arg $ standbys_arg $ bits_arg
          $ no_crash_arg $ budgets_arg)

(* --- frontend ----------------------------------------------------- *)

let frontend_cmd =
  let query_arg =
    let doc = "Query in INQUERY syntax, e.g. '#sum( ba be bi )'." in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"QUERY" ~doc)
  in
  let replicas_arg =
    let doc = "Number of replicas in the group." in
    Arg.(value & opt int 2 & info [ "replicas" ] ~docv:"N" ~doc)
  in
  let deadline_arg =
    let doc = "Per-query deadline in simulated milliseconds." in
    Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"MS" ~doc)
  in
  let degrade_arg =
    let doc =
      "Make one replica's device sick: NAME:MS inflates every physical \
       I/O on replica NAME by MS simulated milliseconds (repeatable)."
    in
    Arg.(value & opt_all string [] & info [ "degrade" ] ~docv:"NAME:MS" ~doc)
  in
  let top_arg =
    let doc = "Number of ranked documents to print." in
    Arg.(value & opt int 10 & info [ "top"; "k" ] ~docv:"K" ~doc)
  in
  let run scale name query replicas deadline degrade top_k =
    if replicas <= 0 then begin
      Printf.eprintf "frontend: --replicas must be positive\n";
      exit 2
    end;
    let model = Collections.Presets.find ~scale name in
    let prepared = Core.Experiment.prepare ~progress model in
    let names = List.init replicas (fun i -> Printf.sprintf "r%d" (i + 1)) in
    let fe = Core.Frontend.of_prepared prepared ~names in
    List.iter
      (fun spec ->
        match String.index_opt spec ':' with
        | None ->
          Printf.eprintf "frontend: --degrade expects NAME:MS, got %s\n" spec;
          exit 2
        | Some i -> (
          let rname = String.sub spec 0 i in
          let ms = String.sub spec (i + 1) (String.length spec - i - 1) in
          match (float_of_string_opt ms, List.mem rname names) with
          | Some ms, true when ms >= 0.0 ->
            Vfs.set_fault
              (Core.Frontend.replica_vfs fe ~name:rname)
              (Vfs.Fault.degraded_device ~file:prepared.Core.Experiment.mneme_file ~ms)
          | _ ->
            Printf.eprintf "frontend: bad --degrade %s (unknown replica or bad MS)\n" spec;
            exit 2))
      degrade;
    match Inquery.Query.parse query with
    | Error msg ->
      Printf.eprintf "parse error: %s\n" msg;
      exit 2
    | Ok q ->
      let r = Core.Frontend.run_query ~top_k ?deadline_ms:deadline fe q in
      Printf.printf "query        %s\n" (Inquery.Query.to_string q);
      Printf.printf "served by    %s\n" r.Core.Frontend.served_by;
      Printf.printf "elapsed      %.2f ms (simulated)\n" r.Core.Frontend.elapsed_ms;
      Printf.printf "degraded     %b%s\n" r.Core.Frontend.degraded
        (if r.Core.Frontend.deadline_hit then " (deadline hit)" else "");
      Printf.printf "hedged       %d fetches\n" r.Core.Frontend.hedged_fetches;
      if r.Core.Frontend.skipped_terms <> [] then
        Printf.printf "skipped      %s\n" (String.concat ", " r.Core.Frontend.skipped_terms);
      List.iter
        (fun (term, reason) -> Printf.printf "failed       %s: %s\n" term reason)
        r.Core.Frontend.failed_terms;
      List.iter
        (fun rname ->
          let state =
            match Core.Frontend.breaker fe ~name:rname with
            | Core.Frontend.Closed -> "closed"
            | Core.Frontend.Open -> "open"
            | Core.Frontend.Half_open -> "half-open"
          in
          Printf.printf "breaker      %s: %s\n" rname state)
        (Core.Frontend.replica_names fe);
      List.iteri
        (fun i rk ->
          Printf.printf "%3d. doc %-8d belief %.4f\n" (i + 1) rk.Inquery.Ranking.doc
            rk.Inquery.Ranking.score)
        r.Core.Frontend.ranked
  in
  let doc =
    "Run one query through the replica frontend: per-replica circuit \
     breakers, hedged reads on stall, and an optional deadline that \
     degrades the result instead of missing it."
  in
  Cmd.v (Cmd.info "frontend" ~doc)
    Term.(const run $ scale_arg $ collection_arg $ query_arg $ replicas_arg $ deadline_arg
          $ degrade_arg $ top_arg)

(* --- shard -------------------------------------------------------- *)

let shard_cmd =
  let collection_arg =
    let doc = "Collection preset: cacm, legal, tipster1 or tipster." in
    Arg.(value & pos 0 string "cacm" & info [] ~docv:"COLLECTION" ~doc)
  in
  let shards_arg =
    let doc = "Shard count to measure (repeatable; default 1, 2, 4, 8)." in
    Arg.(value & opt_all int [] & info [ "shards" ] ~docv:"N" ~doc)
  in
  let replicas_arg =
    let doc = "Replicas per shard." in
    Arg.(value & opt int 2 & info [ "replicas" ] ~docv:"N" ~doc)
  in
  let k_arg =
    let doc = "Ranked documents per query." in
    Arg.(value & opt int 10 & info [ "k" ] ~docv:"K" ~doc)
  in
  let queries_arg =
    let doc = "Evaluate only the first N queries of the set." in
    Arg.(value & opt (some int) None & info [ "queries" ] ~docv:"N" ~doc)
  in
  let audit_arg =
    let doc =
      "Run the shard torture: replay the scatter with one member crashed, stalled or \
       bit-flipped at every serving I/O (plus whole-shard blackouts and brownouts) and \
       audit bit-identical full results, exactly-restricted partial results, and the \
       one-fetch deadline overshoot bound."
    in
    Arg.(value & flag & info [ "audit" ] ~doc)
  in
  let json_arg =
    let doc = "Write the scaling table (and audit outcome) as JSON to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let run scale name shard_counts replicas k n_queries audit json_file =
    if replicas <= 0 || k <= 0 then begin
      Printf.eprintf "shard: --replicas and --k must be positive\n";
      exit 2
    end;
    if List.exists (fun s -> s <= 0) shard_counts then begin
      Printf.eprintf "shard: every --shards must be positive\n";
      exit 2
    end;
    let shard_counts = match shard_counts with [] -> [ 1; 2; 4; 8 ] | l -> l in
    let model = Collections.Presets.find ~scale name in
    let prepared = Core.Experiment.prepare ~progress model in
    let spec = Collections.Presets.topk_queries model in
    let queries = Collections.Querygen.generate model spec in
    let queries =
      match n_queries with
      | None -> queries
      | Some n -> List.filteri (fun i _ -> i < n) queries
    in
    (* The unsharded oracle the merged rankings must reproduce. *)
    let engine = Core.Experiment.open_engine prepared Core.Experiment.Mneme_cache in
    let oracle =
      List.map
        (fun q ->
          List.map
            (fun r -> (r.Inquery.Ranking.doc, r.Inquery.Ranking.score))
            (Core.Engine.run_topk_string ~k engine q).Core.Engine.topk_ranked)
        queries
    in
    let measure ~global_bound shards =
      let coord =
        Core.Shard.create ~shard_replicas:replicas ~global_bound ~shards prepared
      in
      let makespan = ref 0.0 and decoded = ref 0 and per_shard_max = ref 0 and exact = ref true in
      List.iter2
        (fun q gold ->
          match Core.Shard.run_query_string ~top_k:k coord q with
          | Error e ->
            Printf.eprintf "shard: %d-shard query refused: %s\n" shards
              (Core.Shard.error_message e);
            exit 1
          | Ok res ->
            makespan := !makespan +. res.Core.Shard.elapsed_ms;
            List.iter
              (fun (rep : Core.Shard.shard_report) ->
                decoded := !decoded + rep.Core.Shard.r_postings_decoded;
                if rep.Core.Shard.r_postings_decoded > !per_shard_max then
                  per_shard_max := rep.Core.Shard.r_postings_decoded)
              res.Core.Shard.reports;
            let got =
              List.map
                (fun r -> (r.Inquery.Ranking.doc, r.Inquery.Ranking.score))
                res.Core.Shard.ranked
            in
            if (not res.Core.Shard.complete) || got <> gold then exact := false)
        queries oracle;
      (!makespan, !decoded, !per_shard_max, !exact)
    in
    let rows =
      List.filter_map
        (fun shards ->
          if shards > model.Collections.Docmodel.n_docs then begin
            Printf.eprintf "shard: skipping %d shards (> %d documents)\n" shards
              model.Collections.Docmodel.n_docs;
            None
          end
          else begin
            let makespan, decoded, per_shard, exact = measure ~global_bound:true shards in
            let _, decoded_nobound, _, _ = measure ~global_bound:false shards in
            Some (shards, makespan, decoded, per_shard, decoded_nobound, exact)
          end)
        shard_counts
    in
    Printf.printf "%s: %d queries, top-%d, %d replicas per shard\n" name (List.length queries) k
      replicas;
    Printf.printf "%7s %13s %14s %14s %16s %6s\n" "shards" "makespan ms" "decoded(bound)"
      "max per shard" "decoded(nobound)" "exact";
    List.iter
      (fun (s, mk, d, ps, dn, exact) ->
        Printf.printf "%7d %13.2f %14d %14d %16d %6s\n" s mk d ps dn
          (if exact then "yes" else "NO"))
      rows;
    let all_exact = List.for_all (fun (_, _, _, _, _, e) -> e) rows in
    if not all_exact then
      Printf.eprintf "shard: some merged rankings diverged from the unsharded index\n";
    let outcome = if audit then Some (Core.Torture.run_shard ()) else None in
    (match outcome with
    | Some o -> Format.printf "%a@." Core.Torture.pp_shard_outcome o
    | None -> ());
    (match json_file with
    | None -> ()
    | Some f ->
      let oc = open_out f in
      let rows_json =
        String.concat ",\n"
          (List.map
             (fun (s, mk, d, ps, dn, exact) ->
               Printf.sprintf
                 "    {\"shards\": %d, \"makespan_ms\": %.3f, \"postings_decoded\": %d, \
                  \"max_per_shard\": %d, \"postings_decoded_no_bound\": %d, \"exact\": %b}"
                 s mk d ps dn exact)
             rows)
      in
      let audit_json =
        match outcome with
        | None -> ""
        | Some o ->
          let problems_json =
            match o.Core.Torture.st_problems with
            | [] -> "    \"problems\": []"
            | ps ->
              Printf.sprintf "    \"problems\": [\n%s\n    ]"
                (String.concat ",\n"
                   (List.map
                      (fun (r, p) ->
                        Printf.sprintf "      {\"replay\": %d, \"problem\": %S}" r p)
                      ps))
          in
          Printf.sprintf
            ",\n\
            \  \"audit\": {\n\
            \    \"shards\": %d,\n\
            \    \"members\": %d,\n\
            \    \"points\": %d,\n\
            \    \"runs\": %d,\n\
            \    \"full\": %d,\n\
            \    \"partial\": %d,\n\
            \    \"overshoots\": %d,\n\
            \    \"truncations\": %d,\n\
            %s\n\
            \  }"
            o.Core.Torture.st_shards o.Core.Torture.st_members o.Core.Torture.st_points
            o.Core.Torture.st_runs o.Core.Torture.st_full o.Core.Torture.st_partial
            o.Core.Torture.st_overshoots o.Core.Torture.st_truncations problems_json
      in
      Printf.fprintf oc
        "{\n\
        \  \"collection\": %S,\n\
        \  \"scale\": %g,\n\
        \  \"queries\": %d,\n\
        \  \"k\": %d,\n\
        \  \"replicas\": %d,\n\
        \  \"rows\": [\n%s\n  ]%s\n\
         }\n"
        name scale (List.length queries) k replicas rows_json audit_json;
      close_out oc);
    let failed =
      (not all_exact)
      || match outcome with Some o -> not (Core.Torture.shard_ok o) | None -> false
    in
    if failed then exit 1
  in
  let doc =
    "Scatter-gather a query set over doc-partitioned shards (each a replicated store behind \
     its own frontend), measuring makespan and per-shard postings decoded with and without \
     the global top-k bound, and, with $(b,--audit), torture one member at every serving I/O \
     proving partial-result exactness and the deadline overshoot bound."
  in
  Cmd.v (Cmd.info "shard" ~doc)
    Term.(const run $ scale_arg $ collection_arg $ shards_arg $ replicas_arg $ k_arg
          $ queries_arg $ audit_arg $ json_arg)

(* --- query -------------------------------------------------------- *)

let query_cmd =
  let query_arg =
    let doc = "Query in INQUERY syntax, e.g. '#sum( ba #phrase( be bi ) )'." in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"QUERY" ~doc)
  in
  let top_arg =
    let doc = "Number of ranked documents to print." in
    Arg.(value & opt int 10 & info [ "top"; "k" ] ~docv:"K" ~doc)
  in
  let run scale name query top_k =
    let model = Collections.Presets.find ~scale name in
    let prepared = Core.Experiment.prepare ~progress model in
    let engine = Core.Experiment.open_engine prepared Core.Experiment.Mneme_cache in
    match Inquery.Query.parse query with
    | Error msg ->
      Printf.eprintf "parse error: %s\n" msg;
      exit 2
    | Ok q ->
      let result = Core.Engine.run_query ~top_k engine q in
      Printf.printf "query: %s\n" (Inquery.Query.to_string q);
      Printf.printf "lookups: %d, postings scored: %d\n" result.Core.Engine.record_lookups
        result.Core.Engine.postings_scored;
      List.iteri
        (fun i r ->
          Printf.printf "%3d. doc %-8d belief %.4f\n" (i + 1) r.Inquery.Ranking.doc
            r.Inquery.Ranking.score)
        result.Core.Engine.ranked
  in
  let doc = "Run one query against a collection (Mneme cache version)." in
  Cmd.v (Cmd.info "query" ~doc) Term.(const run $ scale_arg $ collection_arg $ query_arg $ top_arg)

let () =
  let doc = "Reproduction of Brown et al., 'Supporting Full-Text Information Retrieval with a Persistent Object Store'" in
  (* No ~version here: cmdliner's built-in --version would collide with
     the run subcommand's documented --version flag. *)
  let info = Cmd.info "repro" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ tables_cmd; ablations_cmd; stats_cmd; run_cmd; query_cmd; topk_cmd; plan_cmd;
            parallel_cmd; fsck_cmd; torture_cmd; failover_cmd; scrub_cmd; epoch_cmd; ingest_cmd;
            frontend_cmd; shard_cmd; cache_cmd ]))
