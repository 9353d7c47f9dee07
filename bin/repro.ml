(* Command-line driver for the reproduction: regenerate any table or
   figure, inspect a collection, or run ad-hoc queries.

   dune exec bin/repro.exe -- tables --scale 0.1
   dune exec bin/repro.exe -- stats legal
   dune exec bin/repro.exe -- run cacm --set 3 --version cache
   dune exec bin/repro.exe -- query cacm "#phrase( ba be )"

   Every measuring command builds its figures as labelled
   [Util.Tables.t]s and hands them to [emit], which prints them the way
   [tables] prints the paper's and, with --json FILE, writes the same
   cells (plus the audit report, when one ran) as JSON. *)

open Cmdliner

let scale_arg =
  let doc = "Collection scale factor (1.0 = calibrated defaults)." in
  Arg.(value & opt float 1.0 & info [ "scale" ] ~docv:"FACTOR" ~doc)

let collection_arg =
  let doc = "Collection preset: cacm, legal, tipster1 or tipster." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"COLLECTION" ~doc)

let collections_arg =
  let doc = "Collections to measure (default: all four)." in
  Arg.(
    value
    & pos_all string [ "cacm"; "legal"; "tipster1"; "tipster" ]
    & info [] ~docv:"COLLECTION" ~doc)

let k_arg =
  let doc = "Ranked documents per query." in
  Arg.(value & opt int 10 & info [ "k" ] ~docv:"K" ~doc)

let queries_arg =
  let doc = "Evaluate only the first N queries of each set." in
  Arg.(value & opt (some int) None & info [ "queries" ] ~docv:"N" ~doc)

let json_arg =
  let doc = "Also write the reported tables, and any audit report, as JSON to $(docv)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let audit_arg doc = Arg.(value & flag & info [ "audit" ] ~doc)

let progress msg = Printf.eprintf "%s\n%!" msg

(* A usage error: the message on stderr, exit status 2. *)
let usage fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      exit 2)
    fmt

(* Collection [name] built at [scale], with the query set [spec] draws
   for it, cut to its first [n] queries when [n] is given. *)
let workload ~scale ?n spec name =
  let model = Collections.Presets.find ~scale name in
  let prepared = Core.Experiment.prepare ~progress model in
  let queries = Collections.Querygen.generate model (spec model) in
  let queries =
    match n with None -> queries | Some n -> List.filteri (fun i _ -> i < n) queries
  in
  (model, prepared, queries)

(* --- reports ------------------------------------------------------ *)

(* The one rendering of every torture family's report: its census on
   one line, then each problem with the point it was found at. *)
let print_report r =
  Printf.printf "%s: %d points, %d problem(s); %s\n" r.Core.Torture.family r.Core.Torture.points
    (List.length r.Core.Torture.problems)
    (String.concat ", "
       (List.map (fun (name, n) -> Printf.sprintf "%s %d" name n) r.Core.Torture.counts));
  List.iter (fun (k, p) -> Printf.printf "  point %d: %s\n" k p) r.Core.Torture.problems

(* The one exit rule: a report with any problem fails the command. *)
let exit_on_problems r = if not (Core.Torture.ok r) then exit 1

(* The one table printer: a blank line, the label, the table. *)
let print_table (label, t) =
  print_newline ();
  print_endline label;
  Util.Tables.print t

(* The one JSON writer: the labelled tables, then the audit report as
   the "audit" member when one ran. *)
let write_json ?audit file tables =
  let oc = open_out file in
  Printf.fprintf oc "{\n  \"tables\": %s%s\n}\n" (Util.Tables.to_json tables)
    (match audit with None -> "" | Some r -> ",\n  \"audit\": " ^ Core.Torture.json r);
  close_out oc;
  progress ("wrote " ^ file)

(* How a measuring command reports: its tables, then the audit report
   if one ran; with --json FILE, the same in FILE. *)
let emit ?audit json tables =
  List.iter print_table tables;
  Option.iter print_report audit;
  Option.iter (fun file -> write_json ?audit file tables) json

(* A table whose first [left] columns align left and the rest right. *)
let table ?(left = 1) names rows =
  let align i = if i < left then Util.Tables.Left else Util.Tables.Right in
  let t = Util.Tables.create ~columns:(List.mapi (fun i name -> (name, align i)) names) in
  List.iter (Util.Tables.add_row t) rows;
  t

let int = string_of_int
let ratio a b =
  Printf.sprintf "%.2fx" (if b > 0 then float_of_int a /. float_of_int b else infinity)

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
    let item id =
      match List.find_opt (fun (i, _, _) -> String.equal i id) Core.Paper.items with
      | Some item -> item
      | None -> usage "unknown item %s (use table1..table6, fig1..fig3)" id
    in
    let wanted = match only with [] -> Core.Paper.items | ids -> List.map item ids in
    List.iter (fun (_, label, build) -> print_table (label, build ctx)) wanted
  in
  let doc = "Regenerate the paper's tables and figures." in
  Cmd.v (Cmd.info "tables" ~doc) Term.(const run $ scale_arg $ only)

(* --- ablations ------------------------------------------------------ *)

let ablations_cmd =
  let run scale =
    List.iter print_table (Core.Ablation.all (Core.Ablation.create ~progress ~scale ()))
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
          if s.Util.Cache_stats.refs > 0 then
            Printf.printf "%-6s buffer %d refs, %d hits\n" pool s.Util.Cache_stats.refs
              s.Util.Cache_stats.hits)
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

(* --- topk ---------------------------------------------------------- *)

(* Every query through a fresh engine session on [prepared], so no
   buffer state leaks between the runs a command compares; an audit
   mismatch fails [cmd]. *)
let topk_session cmd name prepared ?plan ~audit ~k queries =
  let engine = Core.Experiment.open_engine prepared Core.Experiment.Mneme_cache in
  List.map
    (fun q ->
      match Core.Engine.run_topk_string ~audit ?plan ~k engine q with
      | r -> r
      | exception Inquery.Infnet.Audit_mismatch msg ->
        Printf.eprintf "%s: AUDIT FAILED on %s: %s\n  query: %s\n" cmd name msg q;
        exit 1)
    queries

let forced plan = Inquery.Planner.Forced plan
let sum f rs = List.fold_left (fun acc r -> acc + f r) 0 rs

let topk_cmd =
  let audit_arg =
    audit_arg
      "Re-run the exhaustive evaluator after every planned query and fail \
       if the rankings differ in any document or belief."
  in
  let run scale names k n audit json =
    if k <= 0 then usage "topk: -k must be positive";
    let row name =
      let _, prepared, queries = workload ~scale ?n Collections.Presets.topk_queries name in
      let ex =
        topk_session "topk" name prepared ~plan:(forced Inquery.Planner.Exhaustive) ~audit:false
          ~k queries
      in
      let rs = topk_session "topk" name prepared ~audit ~k queries in
      let decoded r = r.Core.Engine.topk_postings_decoded in
      let nq = List.length queries in
      let pruned =
        List.filter (fun r -> r.Core.Engine.topk_plan <> Inquery.Planner.Exhaustive) rs
      in
      [ name; int nq; int (sum (fun r -> r.Core.Engine.topk_postings_total) rs);
        int (sum decoded ex); int (sum decoded rs); ratio (sum decoded ex) (sum decoded rs);
        int (sum (fun r -> r.Core.Engine.topk_blocks_skipped) rs);
        int (sum (fun r -> r.Core.Engine.topk_seeks) rs);
        Printf.sprintf "%d/%d" (List.length pruned) nq ]
    in
    emit json
      [ ( Printf.sprintf "Top-k pruning, k = %d: postings decoded, exhaustive vs planned" k,
          table
            [ "collection"; "queries"; "postings"; "exhaustive"; "planned"; "ratio"; "blocks";
              "seeks"; "pruned" ]
            (List.map row names) ) ];
    if audit then print_endline "audit: every pruned ranking matched the exhaustive one"
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
  let audit_arg =
    audit_arg
      "Audit every run — auto and both forced plans — against the \
       exhaustive evaluator and fail unless each ranking is bit-identical."
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
  let run scale names k n audit json =
    if k <= 0 then usage "plan: -k must be positive";
    let rows name =
      let _, prepared, queries = workload ~scale ?n Collections.Presets.planner_queries name in
      let qclasses =
        Array.of_list (List.map (fun q -> class_of (Inquery.Query.parse_exn q)) queries)
      in
      let session plan = topk_session "plan" name prepared ~plan ~audit ~k queries in
      let ex = session (forced Inquery.Planner.Exhaustive) in
      let ms = session (forced Inquery.Planner.Maxscore) in
      let it = session (forced Inquery.Planner.Intersect) in
      let auto = session Inquery.Planner.Auto in
      let bytes = sum (fun r -> r.Core.Engine.topk_bytes_read) in
      let class_row cls =
        let mine = List.filteri (fun i _ -> String.equal qclasses.(i) cls) in
        match mine auto with
        | [] -> None
        | auto ->
          (* The shape-dispatch baseline is the pre-planner policy: flat
             shapes take max-score, everything else runs exhaustive. *)
          let shape = mine (if String.equal cls "flat" then ms else ex) in
          let plans p = List.length (List.filter (fun r -> r.Core.Engine.topk_plan = p) auto) in
          Some
            [ cls; int (List.length auto); int (bytes (mine ex)); int (bytes (mine ms));
              int (bytes (mine it)); int (bytes shape); int (bytes auto);
              ratio (bytes shape) (bytes auto);
              int (sum (fun r -> r.Core.Engine.topk_est_bytes) auto);
              Printf.sprintf "%d/%d/%d" (plans Inquery.Planner.Maxscore)
                (plans Inquery.Planner.Intersect) (plans Inquery.Planner.Exhaustive) ]
      in
      List.mapi
        (fun i row -> (if i = 0 then name else "") :: row)
        (List.filter_map class_row classes)
    in
    emit json
      [ ( Printf.sprintf "Query planner, k = %d: record bytes decoded per query class" k,
          table ~left:2
            [ "collection"; "class"; "queries"; "exhaustive"; "maxscore"; "intersect"; "shape";
              "auto"; "ratio"; "auto est"; "plans m/i/e" ]
            (List.concat_map rows names) ) ];
    if audit then
      print_endline "audit: every plan's ranking matched the exhaustive one bit-for-bit"
  in
  let doc =
    "Measure the cost-based query planner on the mixed-workload sets: \
     per-class record bytes decoded under the exhaustive baseline, each \
     forced plan, the old shape-based dispatch, and the planner's auto \
     choice, with the planner's own byte estimates alongside and an \
     optional bit-identity audit of every plan."
  in
  Cmd.v (Cmd.info "plan" ~doc)
    Term.(const run $ scale_arg $ collections_arg $ k_arg $ queries_arg $ audit_arg $ json_arg)

(* --- cache -------------------------------------------------------- *)

let cache_cmd =
  let passes_arg =
    let doc =
      "Replays of the query set (the reuse the result cache exists for); \
       every pass after the first should serve from the result cache."
    in
    Arg.(value & opt int 3 & info [ "passes" ] ~docv:"N" ~doc)
  in
  let audit_arg =
    audit_arg
      "Re-run every query with both caches disabled and fail unless the \
       rankings are bit-identical, then run the churn torture: random \
       add/delete mutations with pinned epochs read back through the \
       caches."
  in
  let fingerprint ranked =
    List.map
      (fun r -> (r.Inquery.Ranking.doc, Printf.sprintf "%.9f" r.Inquery.Ranking.score))
      ranked
  in
  let run scale names k n passes audit json =
    if k <= 0 || passes <= 0 then usage "cache: -k and --passes must be positive";
    let collection name =
      let _, prepared, queries = workload ~scale ?n Collections.Presets.topk_queries name in
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
      let fe, cached_rankings, dec_on, rhits, on =
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
      let tier i (tier, s) =
        Util.Cache_stats.
          [ (if i = 0 then name else ""); tier; int s.refs; int s.hits;
            Printf.sprintf "%.1f%%" (100.0 *. hit_rate s); int s.evictions;
            int s.invalidations; int s.resident_bytes; int s.resident_entries ]
      in
      (* Fetches are the replica's file accesses: with caches on, a
         record read from a resident frame makes none. *)
      ( List.mapi tier (Core.Frontend.cache_tiers fe),
        Vfs.
          [ name; Printf.sprintf "%dx%d" (List.length queries) passes; int rhits; int dec_off;
            int dec_on; ratio dec_off dec_on; int off.bytes_read; int on.bytes_read;
            ratio off.bytes_read on.bytes_read; int off.file_accesses; int on.file_accesses;
            ratio off.file_accesses on.file_accesses ] )
    in
    let rows = List.map collection names in
    let churn = if audit then Some (Core.Torture.cache ()) else None in
    (* The buffer pool was the paper's only tier; the result cache sits
       above it, and the block cache's segment frames catch its misses. *)
    emit ?audit:churn json
      [ ( Printf.sprintf "Read-path cache tiers, k = %d" k,
          table ~left:2
            [ "collection"; "tier"; "refs"; "hits"; "rate"; "evictions"; "invalidations";
              "resident bytes"; "resident entries" ]
            (List.concat_map fst rows) );
        ( "Caches on vs off: postings decoded, bytes read and fetches over every pass",
          table
            [ "collection"; "queries"; "rhits"; "decoded:off"; "decoded:on"; "ratio";
              "bytes:off"; "bytes:on"; "ratio"; "fetches:off"; "fetches:on"; "ratio" ]
            (List.map snd rows) ) ];
    if Option.fold ~none:false ~some:Core.Torture.ok churn then
      Printf.printf
        "audit: rankings bit-identical with caches off on %d collection(s); churn leg clean\n"
        (List.length rows);
    Option.iter exit_on_problems churn
  in
  let doc =
    "Measure the tiered read-path caches on reuse-heavy query replays: \
     per-tier (result / frame / buffer) hit rates in the style \
     of the paper's Table 6, plus postings-decoded, bytes-read and \
     file-access deltas against a caches-off baseline, with an optional \
     bit-identity audit and churn torture."
  in
  Cmd.v (Cmd.info "cache" ~doc)
    Term.(const run $ scale_arg $ collections_arg $ k_arg $ queries_arg $ passes_arg
          $ audit_arg $ json_arg)

(* --- parallel ----------------------------------------------------- *)

let parallel_cmd =
  let domains_arg =
    let doc = "Domain counts to sweep (repeatable; default 1, 2, 4, 8)." in
    Arg.(value & opt_all int [ 1; 2; 4; 8 ] & info [ "domains"; "d" ] ~docv:"N" ~doc)
  in
  let audit_arg =
    audit_arg
      "After each parallel run, re-run the set serially and fail unless \
       every ranking is bit-identical (documents and beliefs)."
  in
  let run scale names domains n audit json =
    if List.exists (fun d -> d <= 0) domains then
      usage "parallel: every --domains must be positive";
    let first_set model = snd (List.hd (Collections.Presets.query_sets model)) in
    let ms = Util.Tables.fmt_float ~decimals:1 in
    let rows name =
      let _, prepared, queries = workload ~scale ?n first_set name in
      let reports =
        List.map
          (fun d ->
            match
              Core.Parallel.run_query_set ~domains:d ~audit prepared Core.Experiment.Mneme_cache
                ~queries
            with
            | r -> r
            | exception Core.Parallel.Audit_mismatch msg ->
              Printf.eprintf "parallel: AUDIT FAILED on %s at %d domains: %s\n" name d msg;
              exit 1)
          domains
      in
      let base = match reports with r :: _ -> r.Core.Parallel.sim_makespan_ms | [] -> 0.0 in
      List.map
        (fun (r : Core.Parallel.report) ->
          let speedup = if r.sim_makespan_ms > 0.0 then base /. r.sim_makespan_ms else 0.0 in
          [ name; int (List.length queries); int r.domains; ms r.sim_serial_ms;
            ms r.sim_makespan_ms; Printf.sprintf "%.2fx" speedup; int r.steals;
            ms r.real_elapsed_ms ])
        reports
    in
    emit json
      [ ( "Parallel serving, simulated ms (with more than one domain, makespan, speedup and \
           steals follow host scheduling and vary run to run; real ms is host time)",
          table
            [ "collection"; "queries"; "domains"; "serial ms"; "makespan ms"; "speedup";
              "steals"; "real ms" ]
            (List.concat_map rows names) ) ];
    if audit then
      print_endline "audit: every parallel ranking matched the serial run bit-for-bit"
  in
  let doc =
    "Serve each collection's query set across 1/2/4/8 OCaml domains — \
     one session (private buffers, file copy, clock) per domain, \
     work-stealing distribution — and report the simulated-time scaling \
     table; --audit verifies bit-identical rankings against a serial run.  \
     Which worker steals which query follows host scheduling, so the \
     multi-domain makespans, speedups and steals differ between identical \
     runs; only the one-domain rows and the audit are reproducible."
  in
  Cmd.v (Cmd.info "parallel" ~doc)
    Term.(const run $ scale_arg $ collections_arg $ domains_arg $ queries_arg $ audit_arg
          $ json_arg)

(* --- torture ------------------------------------------------------ *)

let seed_arg =
  let doc = "PRNG seed for the workload." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let torture_cmd =
  let docs_arg =
    let doc = "Objects allocated by the build transaction." in
    Arg.(value & opt int 12 & info [ "docs" ] ~docv:"N" ~doc)
  in
  let batches_arg =
    let doc = "Update transactions after the build." in
    Arg.(value & opt int 3 & info [ "batches" ] ~docv:"N" ~doc)
  in
  let run seed docs update_batches =
    if docs < 0 || update_batches < 0 then
      usage "torture: --docs and --batches must be non-negative";
    let r = Core.Torture.(sweep (prepare (store ~seed ~docs ~update_batches ()))) in
    print_report r;
    exit_on_problems r
  in
  let doc =
    "Crash the journaled store at every physical I/O of an \
     index-build-and-update workload and audit each recovery."
  in
  Cmd.v (Cmd.info "torture" ~doc) Term.(const run $ seed_arg $ docs_arg $ batches_arg)

(* --- failover ----------------------------------------------------- *)

let replicated_docs_arg =
  let doc = "Documents indexed by the workload." in
  Arg.(value & opt int 12 & info [ "docs" ] ~docv:"N" ~doc)

let replicated_batches_arg =
  let doc = "Commit batches the build is split into." in
  Arg.(value & opt int 3 & info [ "batches" ] ~docv:"N" ~doc)

let standbys_arg =
  let doc = "Standby replicas shipping the primary's journal." in
  Arg.(value & opt int 2 & info [ "standbys" ] ~docv:"N" ~doc)

let failover_cmd =
  let run seed docs batches standbys =
    if docs <= 0 || batches <= 0 || standbys <= 0 then
      usage "failover: --docs, --batches and --standbys must be positive";
    let r = Core.Torture.(sweep (prepare (failover ~seed ~docs ~batches ~standbys ()))) in
    print_report r;
    exit_on_problems r
  in
  let doc =
    "Kill the primary of a journal-shipping replica group at every \
     physical I/O, promote the best standby, and audit that it serves \
     the committed prefix byte-identically."
  in
  Cmd.v (Cmd.info "failover" ~doc)
    Term.(const run $ seed_arg $ replicated_docs_arg $ replicated_batches_arg $ standbys_arg)

(* --- epoch and ingest --------------------------------------------- *)

(* The golden run's timeline, then, with --audit, its crash sweep.  The
   text layout is pinned by test/golden/audits.txt; the JSON carries the
   timeline as a table under the header line, and the sweep's report.
   [steps] names the timeline's rows in the header line. *)
let timeline_run plan ~docs ~steps audit json =
  let rows = Core.Torture.table plan in
  let header =
    Printf.sprintf "golden run: %d %s over %d documents, %d crash points" (List.length rows) steps
      docs (Core.Torture.points plan)
  in
  print_endline header;
  let line cell row = print_endline (String.concat " " (List.map cell row)) in
  let names = match rows with [] -> [] | first :: _ -> List.map fst first in
  if names <> [] then line (Printf.sprintf "%10s") names;
  List.iter (line (fun (_, v) -> Printf.sprintf "%10d" v)) rows;
  let golden_problems = Core.Torture.golden_problems plan in
  List.iter (Printf.printf "golden run problem: %s\n") golden_problems;
  let report = if audit then Some (Core.Torture.sweep plan) else None in
  Option.iter print_report report;
  Option.iter
    (fun file ->
      write_json ?audit:report file
        [ (header, table ~left:0 names (List.map (List.map (fun (_, v) -> int v)) rows)) ])
    json;
  if golden_problems <> [] then exit 1;
  Option.iter exit_on_problems report

let epoch_cmd =
  let docs_arg =
    let doc = "Documents the live-index workload indexes (deletions are interleaved)." in
    Arg.(value & opt int 8 & info [ "docs" ] ~docv:"N" ~doc)
  in
  let audit_arg =
    audit_arg
      "Crash the workload at every physical I/O, recover each image, and audit that the \
       surviving root is wholly old or wholly new, fsck-clean, and gc-drainable."
  in
  let run seed docs audit json =
    if docs <= 0 then usage "epoch: --docs must be positive";
    timeline_run (Core.Torture.(prepare (epoch ~seed ~docs ()))) ~docs ~steps:"epochs published"
      audit json
  in
  let doc =
    "Publish epochs through a journaled live index (snapshot-isolated COW mutation) and, with \
     $(b,--audit), crash at every physical I/O proving torn-read-proof recovery and \
     pinned-epoch gc safety."
  in
  Cmd.v (Cmd.info "epoch" ~doc) Term.(const run $ seed_arg $ docs_arg $ audit_arg $ json_arg)

let ingest_cmd =
  let docs_arg =
    let doc = "Documents the ingest workload adds (deletions and merges are interleaved)." in
    Arg.(value & opt int 8 & info [ "docs" ] ~docv:"N" ~doc)
  in
  let audit_arg =
    audit_arg
      "Crash the workload at every physical I/O, recover each image with WAL replay, and \
       audit exactly-once durability: every acknowledged document present exactly once, \
       rankings byte-identical to the golden run at the recovered frontier, and the merge \
       resuming to a clean drain."
  in
  let run seed docs audit json =
    if docs <= 0 then usage "ingest: --docs must be positive";
    timeline_run (Core.Torture.(prepare (ingest ~seed ~docs ()))) ~docs ~steps:"operations" audit
      json
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
  let budgets_arg =
    let doc =
      "Instead of the sweep, run the scrub-tax experiment: detect and \
       heal one rotted segment under each per-step byte BUDGET \
       (repeatable), reporting detection latency against foreground \
       query slowdown."
    in
    Arg.(value & opt_all int [] & info [ "budget" ] ~docv:"BUDGET" ~doc)
  in
  let run seed docs batches standbys budgets =
    if docs <= 0 || batches <= 0 || standbys <= 0 then
      usage "scrub: --docs, --batches and --standbys must be positive";
    if List.exists (fun b -> b <= 0) budgets then usage "scrub: every --budget must be positive";
    match budgets with
    | _ :: _ ->
      let row (r : Core.Torture.sweep_row) =
        Util.Tables.
          [ int r.sw_budget; int r.sw_steps; fmt_float r.sw_detect_ms; fmt_float r.sw_stall_ms;
            fmt_float r.sw_heal_ms; fmt_float r.sw_query_ms ]
      in
      let rows = Core.Torture.scrub_budget_sweep ~seed ~docs ~batches ~standbys ~budgets () in
      emit None
        [ ( "Scrub budget sweep: one rotted segment detected and healed under each per-step \
             byte budget (simulated ms)",
            table ~left:0
              [ "budget B"; "steps"; "detect ms"; "stall ms"; "heal ms"; "query ms" ]
              (List.map row rows) ) ]
    | [] ->
      let r = Core.Torture.scrub ~seed ~docs ~batches ~standbys () in
      print_report r;
      exit_on_problems r
  in
  let doc =
    "Flip bits in every physical segment of a replicated store, one \
     member at a time, and audit that budgeted scrubbing plus replica \
     read-repair converges the group back to byte-identical, \
     query-identical stores — including when the repair itself is \
     crashed at every I/O."
  in
  Cmd.v (Cmd.info "scrub" ~doc)
    Term.(const run $ seed_arg $ replicated_docs_arg $ replicated_batches_arg $ standbys_arg
          $ budgets_arg)

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
    if replicas <= 0 then usage "frontend: --replicas must be positive";
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
    Arg.(value & opt_all int [ 1; 2; 4; 8 ] & info [ "shards" ] ~docv:"N" ~doc)
  in
  let replicas_arg =
    let doc = "Replicas per shard." in
    Arg.(value & opt int 2 & info [ "replicas" ] ~docv:"N" ~doc)
  in
  let audit_arg =
    audit_arg
      "Run the shard torture: replay the scatter with one member crashed, stalled or \
       bit-flipped at every serving I/O (plus whole-shard blackouts and brownouts) and \
       audit bit-identical full results, exactly-restricted partial results, and the \
       one-fetch deadline overshoot bound."
  in
  let run scale name shard_counts replicas k n audit json =
    if replicas <= 0 || k <= 0 then usage "shard: --replicas and -k must be positive";
    if List.exists (fun s -> s <= 0) shard_counts then
      usage "shard: every --shards must be positive";
    let model, prepared, queries = workload ~scale ?n Collections.Presets.topk_queries name in
    let ranking = List.map (fun r -> (r.Inquery.Ranking.doc, r.Inquery.Ranking.score)) in
    (* The unsharded oracle the merged rankings must reproduce. *)
    let oracle =
      List.map
        (fun r -> ranking r.Core.Engine.topk_ranked)
        (topk_session "shard" name prepared ~audit:false ~k queries)
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
            if (not res.Core.Shard.complete) || ranking res.Core.Shard.ranked <> gold then
              exact := false)
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
            Some (exact, [ int shards; Util.Tables.fmt_float makespan; int decoded; int per_shard;
                           int decoded_nobound; (if exact then "yes" else "NO") ])
          end)
        shard_counts
    in
    let all_exact = List.for_all fst rows in
    if not all_exact then
      Printf.eprintf "shard: some merged rankings diverged from the unsharded index\n";
    let outcome = if audit then Some (Core.Torture.shard ()) else None in
    emit ?audit:outcome json
      [ ( Printf.sprintf "%s: %d queries, top-%d, %d replicas per shard" name
            (List.length queries) k replicas,
          table ~left:0
            [ "shards"; "makespan ms"; "decoded(bound)"; "max per shard"; "decoded(nobound)";
              "exact" ]
            (List.map snd rows) ) ];
    if not all_exact then exit 1;
    Option.iter exit_on_problems outcome
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
