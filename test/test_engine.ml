(* The integrated engine: query execution, reservation, CPU charging. *)

let model =
  Collections.Docmodel.make ~name:"eng" ~n_docs:400 ~core_vocab:1200 ~mean_doc_len:60.0
    ~hapax_prob:0.02 ~seed:61 ()

let prepared = lazy (Core.Experiment.prepare model)

let engine version = Core.Experiment.open_engine (Lazy.force prepared) version

let test_results_identical_across_backends () =
  let queries =
    [ "ba"; "#sum( ba be bi )"; "#and( ba #or( be bo ) )"; "#wsum( 2 ba 1 bu )";
      "#phrase( ba be )" ]
  in
  let run version =
    let e = engine version in
    List.map
      (fun q ->
        (Core.Engine.run_query_string ~top_k:20 e q).Core.Engine.ranked
        |> List.map (fun r -> (r.Inquery.Ranking.doc, Printf.sprintf "%.9f" r.Inquery.Ranking.score)))
      queries
  in
  let bt = run Core.Experiment.Btree in
  let mc = run Core.Experiment.Mneme_cache in
  let mn = run Core.Experiment.Mneme_no_cache in
  Alcotest.(check bool) "btree = mneme cache" true (bt = mc);
  Alcotest.(check bool) "btree = mneme nocache" true (bt = mn)

let test_engine_cpu_charged () =
  let p = Lazy.force prepared in
  let e = engine Core.Experiment.Btree in
  let clock = Vfs.clock p.Core.Experiment.vfs in
  let before = (Vfs.Clock.snapshot clock).Vfs.Clock.engine_cpu_ms in
  ignore (Core.Engine.run_query_string e "#sum( ba be )");
  let after = (Vfs.Clock.snapshot clock).Vfs.Clock.engine_cpu_ms in
  Alcotest.(check bool) "cpu charged" true (after > before)

let test_run_batch_order () =
  let e = engine Core.Experiment.Mneme_cache in
  let results = Core.Engine.run_batch e [ "ba"; "be" ] in
  Alcotest.(check int) "two results" 2 (List.length results)

let test_invalid_query_raises () =
  let e = engine Core.Experiment.Mneme_cache in
  Alcotest.(check bool) "syntax error" true
    (match Core.Engine.run_query_string e "#and(" with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_store_accessor () =
  let e = engine Core.Experiment.Mneme_cache in
  Alcotest.(check string) "store name" "mneme-cache" (Core.Engine.store e).Core.Index_store.name

let test_reservation_pins_during_query () =
  (* With reservation on, a repeated-term query over a tight buffer
     keeps its records resident; measured indirectly: reserve-on never
     does more I/O than reserve-off on the same session sequence. *)
  let p = Lazy.force prepared in
  let tight =
    Core.Buffer_sizing.with_large
      (Core.Experiment.default_buffers p)
      (p.Core.Experiment.largest_record * 5 / 4)
  in
  let io reserve =
    Vfs.purge_os_cache p.Core.Experiment.vfs;
    let store =
      Core.Mneme_backend.open_session p.Core.Experiment.vfs ~file:p.Core.Experiment.mneme_file
        ~buffers:tight
    in
    let catalog = Core.Catalog.load p.Core.Experiment.vfs ~file:p.Core.Experiment.catalog_file in
    let e =
      Core.Engine.create ~vfs:p.Core.Experiment.vfs ~store ~dict:catalog.Core.Catalog.dict
        ~n_docs:catalog.Core.Catalog.n_docs
        ~avg_doc_len:(Core.Catalog.avg_doc_length catalog)
        ~doc_len:(fun d ->
          if d < 0 || d >= Array.length catalog.Core.Catalog.doc_lens then 0
          else catalog.Core.Catalog.doc_lens.(d))
        ~reserve ()
    in
    let before = (Vfs.counters p.Core.Experiment.vfs).Vfs.file_accesses in
    ignore (Core.Engine.run_batch e [ "#sum( ba be bi bo bu ca ce ci )"; "#sum( ba be bi )" ]);
    (Vfs.counters p.Core.Experiment.vfs).Vfs.file_accesses - before
  in
  let with_reserve = io true in
  let without = io false in
  Alcotest.(check bool)
    (Printf.sprintf "reserve (%d) <= no reserve (%d)" with_reserve without)
    true (with_reserve <= without)

(* A reservation taken before evaluation must be released even when
   evaluation raises (salvage off + corrupt record): leaked pins would
   accumulate across queries and starve the buffers. *)
let test_reservation_released_when_eval_raises () =
  let vfs = Vfs.create () in
  let store = Mneme.Store.create vfs "leak.mneme" in
  let medium = Mneme.Store.add_pool store Mneme.Policy.medium in
  let large = Mneme.Store.add_pool store Mneme.Policy.large in
  let medium_buf = Mneme.Buffer_pool.create ~name:"medium" ~capacity:100_000 () in
  let large_buf = Mneme.Buffer_pool.create ~name:"large" ~capacity:100_000 () in
  Mneme.Store.attach_buffer medium medium_buf;
  Mneme.Store.attach_buffer large large_buf;
  (* Two one-term records built by a real indexer so they decode. *)
  let indexer = Inquery.Indexer.create () in
  Inquery.Indexer.add_document_terms indexer ~doc_id:0 [| "srv"; "vct" |];
  Inquery.Indexer.add_document_terms indexer ~doc_id:1 [| "srv" |];
  let dict = Inquery.Indexer.dictionary indexer in
  (* srv to the medium pool, vct to the large pool: distinct physical
     segments, so one can be corrupted and the other kept resident. *)
  Inquery.Indexer.to_records indexer
  |> Seq.iter (fun (tid, record) ->
         let entry = Option.get (Inquery.Dictionary.find_by_id dict tid) in
         let pool = if entry.Inquery.Dictionary.term = "srv" then medium else large in
         entry.Inquery.Dictionary.locator <- Mneme.Store.allocate pool record);
  Mneme.Store.finalize store;
  let session =
    {
      Core.Index_store.name = "leak";
      fetch =
        (fun entry ->
          let locator = entry.Inquery.Dictionary.locator in
          if locator < 0 then None else Mneme.Store.get_opt store locator);
      reserve =
        (fun entries ->
          Mneme.Store.reserve store
            (List.filter_map
               (fun e ->
                 let l = e.Inquery.Dictionary.locator in
                 if l < 0 then None else Some l)
               entries));
      buffer_stats = (fun () -> []);
      reset_buffer_stats = (fun () -> ());
      file_size = (fun () -> Mneme.Store.file_size store);
      epoch = (fun () -> Mneme.Store.epoch store);
      attach_frames = Core.Index_store.no_frames;
      fetch_resident = Core.Index_store.never_resident;
    }
  in
  let engine =
    Core.Engine.create ~vfs ~store:session ~dict ~n_docs:2 ~avg_doc_len:1.5
      ~doc_len:(Inquery.Indexer.doc_length indexer)
      ~reserve:true ~salvage:false ()
  in
  (* Warm srv's segment so the next reservation actually pins it. *)
  ignore (Core.Engine.run_query_string engine "srv");
  (* Damage vct's segment on disk; it is not buffered, so the fetch will
     re-read it and fail its CRC. *)
  let vct = Option.get (Inquery.Dictionary.find dict "vct") in
  let pseg = Option.get (Mneme.Store.locate_pseg store vct.Inquery.Dictionary.locator) in
  let off, len = List.assoc pseg (Mneme.Store.pool_segments large) in
  let f = Vfs.open_file vfs "leak.mneme" in
  let target = off + (len / 2) in
  let byte = Bytes.get (Vfs.read f ~off:target ~len:1) 0 in
  Vfs.write f ~off:target (Bytes.make 1 (Char.chr (Char.code byte lxor 0x10)));
  Mneme.Buffer_pool.drop large_buf ~pseg;
  Alcotest.(check bool) "query aborts with Corrupt" true
    (match Core.Engine.run_query_string engine "#sum( srv vct )" with
    | _ -> false
    | exception Mneme.Store.Corrupt _ -> true);
  Alcotest.(check (list int)) "no pins leaked in the medium buffer" []
    (Mneme.Buffer_pool.pinned_segments medium_buf);
  Alcotest.(check (list int)) "no pins leaked in the large buffer" []
    (Mneme.Buffer_pool.pinned_segments large_buf);
  (* The engine still serves clean queries afterwards. *)
  Alcotest.(check bool) "engine survives" true
    ((Core.Engine.run_query_string engine "srv").Core.Engine.ranked <> [])

(* Read-repair: a corrupt segment quarantines its term (salvage mode),
   later fetches short-circuit without touching the store, and
   [heal_pending] restores the term from a pristine peer copy. *)
let test_read_repair_heals_quarantine () =
  let vfs = Vfs.create () in
  let store = Mneme.Store.create vfs "heal.mneme" in
  let medium = Mneme.Store.add_pool store Mneme.Policy.medium in
  let large = Mneme.Store.add_pool store Mneme.Policy.large in
  let medium_buf = Mneme.Buffer_pool.create ~name:"medium" ~capacity:100_000 () in
  let large_buf = Mneme.Buffer_pool.create ~name:"large" ~capacity:100_000 () in
  Mneme.Store.attach_buffer medium medium_buf;
  Mneme.Store.attach_buffer large large_buf;
  let indexer = Inquery.Indexer.create () in
  Inquery.Indexer.add_document_terms indexer ~doc_id:0 [| "srv"; "vct" |];
  Inquery.Indexer.add_document_terms indexer ~doc_id:1 [| "srv" |];
  let dict = Inquery.Indexer.dictionary indexer in
  Inquery.Indexer.to_records indexer
  |> Seq.iter (fun (tid, record) ->
         let entry = Option.get (Inquery.Dictionary.find_by_id dict tid) in
         let pool = if entry.Inquery.Dictionary.term = "srv" then medium else large in
         entry.Inquery.Dictionary.locator <- Mneme.Store.allocate pool record);
  Mneme.Store.finalize store;
  (* Pristine replica taken before the rot. *)
  let backup = Vfs.create () in
  Vfs.copy_file vfs "heal.mneme" ~into:backup;
  let fetches = ref 0 in
  let session =
    {
      Core.Index_store.name = "heal";
      fetch =
        (fun entry ->
          incr fetches;
          let locator = entry.Inquery.Dictionary.locator in
          if locator < 0 then None else Mneme.Store.get_opt store locator);
      reserve = (fun _ () -> ());
      buffer_stats = (fun () -> []);
      reset_buffer_stats = (fun () -> ());
      file_size = (fun () -> Mneme.Store.file_size store);
      epoch = (fun () -> Mneme.Store.epoch store);
      attach_frames = Core.Index_store.no_frames;
      fetch_resident = Core.Index_store.never_resident;
    }
  in
  let engine =
    Core.Engine.create ~vfs ~store:session ~dict ~n_docs:2 ~avg_doc_len:1.5
      ~doc_len:(Inquery.Indexer.doc_length indexer)
      ~reserve:false ()
  in
  let query = "#sum( srv vct )" in
  let baseline = (Core.Engine.run_query_string engine query).Core.Engine.ranked in
  Alcotest.(check (list reject)) "nothing quarantined yet" []
    (Core.Engine.pending_repairs engine |> List.map (fun _ -> assert false));
  (* Rot vct's segment on disk and evict the clean buffered copy. *)
  let vct = Option.get (Inquery.Dictionary.find dict "vct") in
  let pseg = Option.get (Mneme.Store.locate_pseg store vct.Inquery.Dictionary.locator) in
  let off, len = List.assoc pseg (Mneme.Store.pool_segments large) in
  let f = Vfs.open_file vfs "heal.mneme" in
  let target = off + (len / 2) in
  let byte = Bytes.get (Vfs.read f ~off:target ~len:1) 0 in
  Vfs.write f ~off:target (Bytes.make 1 (Char.chr (Char.code byte lxor 0x10)));
  Mneme.Buffer_pool.drop large_buf ~pseg;
  (* Salvage keeps the query alive and quarantines the term. *)
  let degraded = (Core.Engine.run_query_string engine query).Core.Engine.ranked in
  Alcotest.(check bool) "degraded results differ" true (degraded <> baseline);
  (match Core.Engine.pending_repairs engine with
  | [ t ] ->
    Alcotest.(check string) "ticket names the term" "vct" t.Core.Engine.term;
    Alcotest.(check bool) "reason carries the CRC complaint" true
      (Str_find.contains t.Core.Engine.reason "CRC")
  | l -> Alcotest.fail (Printf.sprintf "expected 1 ticket, got %d" (List.length l)));
  (* While quarantined, re-evaluation short-circuits: the store is not
     asked for vct's record again. *)
  let before = !fetches in
  ignore (Core.Engine.run_query_string engine query);
  Alcotest.(check int) "only srv fetched while quarantined" 1 (!fetches - before);
  Alcotest.(check int) "still one quarantine entry" 1
    (List.length (Core.Engine.quarantined engine));
  (* Heal from the pristine backup and observe full recovery. *)
  (match Core.Engine.heal_pending engine ~store ~sources:[ ("backup", backup) ] with
  | [ (term, Ok src) ] ->
    Alcotest.(check string) "healed term" "vct" term;
    Alcotest.(check string) "healed from backup" "backup" src
  | [ (_, Error e) ] -> Alcotest.fail ("heal failed: " ^ e)
  | l -> Alcotest.fail (Printf.sprintf "expected 1 outcome, got %d" (List.length l)));
  Alcotest.(check int) "quarantine lifted" 0 (List.length (Core.Engine.quarantined engine));
  Alcotest.(check (list reject)) "worklist drained" []
    (Core.Engine.pending_repairs engine |> List.map (fun _ -> assert false));
  let healed = (Core.Engine.run_query_string engine query).Core.Engine.ranked in
  Alcotest.(check bool) "results restored" true (healed = baseline);
  Alcotest.(check bool) "mark_healed false for unknown term" false
    (Core.Engine.mark_healed engine ~term:"nope")

(* heal_pending reports per-ticket failures and keeps the quarantine
   when no source holds a verified copy. *)
let test_heal_pending_keeps_failed_tickets () =
  let vfs = Vfs.create () in
  let store = Mneme.Store.create vfs "heal2.mneme" in
  let large = Mneme.Store.add_pool store Mneme.Policy.large in
  let large_buf = Mneme.Buffer_pool.create ~name:"large" ~capacity:100_000 () in
  Mneme.Store.attach_buffer large large_buf;
  let indexer = Inquery.Indexer.create () in
  Inquery.Indexer.add_document_terms indexer ~doc_id:0 [| "vct" |];
  let dict = Inquery.Indexer.dictionary indexer in
  Inquery.Indexer.to_records indexer
  |> Seq.iter (fun (tid, record) ->
         let entry = Option.get (Inquery.Dictionary.find_by_id dict tid) in
         entry.Inquery.Dictionary.locator <- Mneme.Store.allocate large record);
  Mneme.Store.finalize store;
  let session =
    {
      Core.Index_store.name = "heal2";
      fetch =
        (fun entry ->
          let locator = entry.Inquery.Dictionary.locator in
          if locator < 0 then None else Mneme.Store.get_opt store locator);
      reserve = (fun _ () -> ());
      buffer_stats = (fun () -> []);
      reset_buffer_stats = (fun () -> ());
      file_size = (fun () -> Mneme.Store.file_size store);
      epoch = (fun () -> Mneme.Store.epoch store);
      attach_frames = Core.Index_store.no_frames;
      fetch_resident = Core.Index_store.never_resident;
    }
  in
  let engine =
    Core.Engine.create ~vfs ~store:session ~dict ~n_docs:1 ~avg_doc_len:1.0
      ~doc_len:(Inquery.Indexer.doc_length indexer)
      ~reserve:false ()
  in
  let vct = Option.get (Inquery.Dictionary.find dict "vct") in
  let pseg = Option.get (Mneme.Store.locate_pseg store vct.Inquery.Dictionary.locator) in
  let off, len = List.assoc pseg (Mneme.Store.pool_segments large) in
  let f = Vfs.open_file vfs "heal2.mneme" in
  let target = off + (len / 2) in
  let byte = Bytes.get (Vfs.read f ~off:target ~len:1) 0 in
  Vfs.write f ~off:target (Bytes.make 1 (Char.chr (Char.code byte lxor 0x10)));
  Mneme.Buffer_pool.drop large_buf ~pseg;
  (* A replica taken after the rot is as rotten as the primary. *)
  let rotten = Vfs.create () in
  Vfs.copy_file vfs "heal2.mneme" ~into:rotten;
  ignore (Core.Engine.run_query_string engine "vct");
  Alcotest.(check int) "quarantined" 1 (List.length (Core.Engine.quarantined engine));
  (match Core.Engine.heal_pending engine ~store ~sources:[ ("rotten", rotten) ] with
  | [ ("vct", Error _) ] -> ()
  | _ -> Alcotest.fail "expected a single failed outcome");
  Alcotest.(check int) "ticket kept" 1 (List.length (Core.Engine.pending_repairs engine));
  Alcotest.(check int) "still quarantined" 1 (List.length (Core.Engine.quarantined engine))

let test_top_k_limits () =
  let e = engine Core.Experiment.Mneme_cache in
  let r = Core.Engine.run_query_string ~top_k:3 e "ba" in
  Alcotest.(check bool) "at most 3" true (List.length r.Core.Engine.ranked <= 3)

let suite =
  [
    Alcotest.test_case "results identical across backends" `Quick
      test_results_identical_across_backends;
    Alcotest.test_case "engine cpu charged" `Quick test_engine_cpu_charged;
    Alcotest.test_case "run batch" `Quick test_run_batch_order;
    Alcotest.test_case "invalid query raises" `Quick test_invalid_query_raises;
    Alcotest.test_case "store accessor" `Quick test_store_accessor;
    Alcotest.test_case "reservation helps" `Quick test_reservation_pins_during_query;
    Alcotest.test_case "reservation released when eval raises" `Quick
      test_reservation_released_when_eval_raises;
    Alcotest.test_case "read repair heals quarantine" `Quick
      test_read_repair_heals_quarantine;
    Alcotest.test_case "heal_pending keeps failed tickets" `Quick
      test_heal_pending_keeps_failed_tickets;
    Alcotest.test_case "top_k limits" `Quick test_top_k_limits;
  ]
