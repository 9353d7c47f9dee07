(* Epoch-versioned snapshot isolation: crash-safe root publication
   (every physical I/O a crash point), pinned-epoch reads surviving
   churn and gc, statistics-drift audits, and cross-domain determinism
   of pinned rankings.  [REPRO_TEST_DOMAINS] (used by CI) pins the
   domain counts the multi-domain case exercises. *)

let domain_counts =
  match Sys.getenv_opt "REPRO_TEST_DOMAINS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some d when d > 0 -> [ d ]
    | _ -> [ 1; 2; 4 ])
  | None -> [ 1; 2; 4 ]

let fingerprint ranked =
  List.map
    (fun r -> (r.Inquery.Ranking.doc, Printf.sprintf "%.9f" r.Inquery.Ranking.score))
    ranked

let queries =
  let t r = Collections.Synth.core_term ~rank:r in
  [ t 1; Printf.sprintf "#sum( %s %s %s )" (t 1) (t 2) (t 3) ]

(* --- crash-point enumeration (the tentpole audit) ------------------ *)

let test_every_epoch_point_recovers_whole () =
  let r = Core.Torture.(sweep (prepare (epoch ~seed:42 ~docs:6 ()))) in
  let count name = List.assoc name r.Core.Torture.counts in
  Alcotest.(check bool) "workload performs I/O" true (r.Core.Torture.points > 30);
  Alcotest.(check (list (pair int string)))
    "no invariant violations" [] r.Core.Torture.problems;
  Alcotest.(check bool) "most crash images open" true (count "opened" > count "unopenable");
  (* Crashes before the commit record seals leave the old epoch ... *)
  Alcotest.(check bool) "some roots wholly old" true (count "wholly_old" > 0);
  (* ... crashes after it leave the new one — never a mix. *)
  Alcotest.(check bool) "some roots wholly new" true (count "wholly_new" > 0);
  Alcotest.(check bool) "some logs replayed" true (count "replayed" > 0);
  Alcotest.(check bool) "some logs discarded" true (count "discarded" > 0);
  Alcotest.(check bool) "golden gc reclaimed retired epochs" true (count "reclaimed" > 0)

let prop_random_epoch_crash_point_whole =
  Test_torture.prop_random_crash_point
    ~name:"random epoch workload, random crash point recovers whole" ~count:30 ~seeds:3
    (fun seed -> Core.Torture.epoch ~seed ~docs:5 ())

(* --- statistics drift under randomized churn ----------------------- *)

let churn_model =
  Collections.Docmodel.make ~name:"churn" ~n_docs:60 ~core_vocab:150 ~mean_doc_len:25.0
    ~hapax_prob:0.05 ~seed:7 ()

let test_churn_statistics_stay_consistent () =
  let rng = Random.State.make [| 7 |] in
  let vfs = Vfs.create () in
  let live = Core.Live_index.create_mneme vfs ~file:"churn.mneme" () in
  let twin = Core.Live_index.create_btree (Vfs.create ()) ~file:"churn.btree" () in
  let alive = ref [] in
  Seq.iter
    (fun doc ->
      let text = Collections.Synth.document_text doc in
      let id = Core.Live_index.add_document live ~doc_id:doc.Collections.Synth.id text in
      ignore (Core.Live_index.add_document twin ~doc_id:doc.Collections.Synth.id text);
      alive := id :: !alive;
      if Random.State.int rng 3 = 0 then begin
        let l = !alive in
        let victim = List.nth l (Random.State.int rng (List.length l)) in
        let a = Core.Live_index.delete_document live victim in
        let b = Core.Live_index.delete_document twin victim in
        Alcotest.(check bool) "backends agree on existence" a b;
        if a then alive := List.filter (fun d -> d <> victim) !alive
      end)
    (Collections.Synth.documents churn_model);
  (* The drift audit deep-validates every record and cross-checks df/cf
     through Catalog.verify_records, the aggregate invariants, and (on
     Mneme) the published snapshot against the live tables. *)
  Alcotest.(check (list (pair string string)))
    "mneme audit clean" [] (Core.Live_index.audit live);
  Alcotest.(check (list (pair string string)))
    "btree audit clean" [] (Core.Live_index.audit twin);
  Alcotest.(check bool) "directories agree across backends" true
    (Core.Live_index.directory live = Core.Live_index.directory twin);
  Alcotest.(check int) "document counts agree" (Core.Live_index.document_count twin)
    (Core.Live_index.document_count live);
  ignore (Core.Live_index.gc live);
  Alcotest.(check int) "nothing stranded after gc" 0 (Core.Live_index.stranded_bytes live);
  Core.Live_index.flush live;
  let store = Option.get (Core.Live_index.mneme_store live) in
  let rep = Mneme.Check.run ~object_check:Inquery.Postings.validate store in
  Alcotest.(check bool)
    (Format.asprintf "%a" Mneme.Check.pp_report rep)
    true (Mneme.Check.ok rep)

(* --- pinned readers under interleaved mutation (all presets) ------- *)

let preset_names = [ "cacm"; "legal"; "tipster1"; "tipster" ]

let preset_docs =
  let tbl = Hashtbl.create 4 in
  fun name ->
    match Hashtbl.find_opt tbl name with
    | Some d -> d
    | None ->
      let model = Collections.Presets.find ~scale:0.01 name in
      let d = Array.of_seq (Seq.take 10 (Collections.Synth.documents model)) in
      Hashtbl.add tbl name d;
      d

let prop_pinned_rankings_survive_churn =
  QCheck.Test.make ~name:"pinned rankings survive churn and gc on every preset" ~count:24
    QCheck.(pair (int_range 0 3) (int_range 0 9999))
    (fun (pi, seed) ->
      let docs = preset_docs (List.nth preset_names pi) in
      let rng = Random.State.make [| seed |] in
      let live = Core.Live_index.create_mneme (Vfs.create ()) ~file:"pin.mneme" () in
      let twin = Core.Live_index.create_btree (Vfs.create ()) ~file:"pin.btree" () in
      let pins = ref [] in
      let alive = ref [] in
      let ok = ref true in
      let check b = if not b then ok := false in
      Array.iter
        (fun doc ->
          let text = Collections.Synth.document_text doc in
          ignore (Core.Live_index.add_document live ~doc_id:doc.Collections.Synth.id text);
          ignore (Core.Live_index.add_document twin ~doc_id:doc.Collections.Synth.id text);
          alive := doc.Collections.Synth.id :: !alive;
          (if Random.State.int rng 3 = 0 then
             let l = !alive in
             let victim = List.nth l (Random.State.int rng (List.length l)) in
             check
               (Core.Live_index.delete_document live victim
               = Core.Live_index.delete_document twin victim);
             alive := List.filter (fun d -> d <> victim) !alive);
          (* A pin captures the rankings the live view serves right now. *)
          if Random.State.int rng 2 = 0 then begin
            let p = Core.Live_index.pin live in
            let fp =
              List.map (fun q -> fingerprint (Core.Live_index.search ~top_k:10 live q)) queries
            in
            pins := (p, fp) :: !pins
          end;
          if Random.State.int rng 4 = 0 then ignore (Core.Live_index.gc live);
          (* The unpinned view always reflects the latest state: it
             must rank exactly like the B-tree twin fed the same ops. *)
          List.iter
            (fun q ->
              check
                (fingerprint (Core.Live_index.search ~top_k:10 live q)
                = fingerprint (Core.Live_index.search ~top_k:10 twin q)))
            queries)
        docs;
      (* Every pinned reader still ranks bit-identically, no matter the
         churn and gc that followed its pin. *)
      List.iter
        (fun (p, fp) ->
          let now =
            List.map
              (fun q ->
                fingerprint (Core.Live_index.rank ~top_k:10 live (Core.Live_index.pinned live p) q))
              queries
          in
          check (fp = now))
        !pins;
      (* Pinned evaluation released its segment reservations. *)
      let store = Option.get (Core.Live_index.mneme_store live) in
      List.iter
        (fun pool ->
          match Mneme.Store.buffer pool with
          | Some b -> check (Mneme.Buffer_pool.pinned_segments b = [])
          | None -> ())
        (Mneme.Store.pools store);
      List.iter (fun (p, _) -> Core.Live_index.release live p) !pins;
      ignore (Core.Live_index.gc live);
      check (Core.Live_index.stranded_bytes live = 0);
      check (Core.Live_index.audit live = []);
      !ok)

(* --- gc never frees what a pin can reach --------------------------- *)

(* "alpha" occurs ten times in the first document, so its record is an
   object the deletion retires while the pin still reads it. *)
let test_gc_respects_pins () =
  let live = Core.Live_index.create_mneme (Vfs.create ()) ~file:"gcpin.mneme" () in
  ignore
    (Core.Live_index.add_document live
       (String.concat " " (List.init 10 (fun _ -> "alpha")) ^ " beta gamma"));
  let p = Core.Live_index.pin live in
  let golden = fingerprint (Core.Live_index.search ~top_k:10 live "alpha") in
  ignore (Core.Live_index.add_document live "alpha delta");
  ignore (Core.Live_index.delete_document live 0);
  Alcotest.(check (list int)) "pin registered" [ 1 ] (Core.Live_index.pinned_epochs live);
  let s1 = Core.Live_index.gc live in
  Alcotest.(check bool) "gc retained the pinned epoch's objects" true
    (s1.Mneme.Epoch.retained_objects > 0);
  Alcotest.(check bool) "pinned search unchanged after gc" true
    (fingerprint (Core.Live_index.rank ~top_k:10 live (Core.Live_index.pinned live p) "alpha")
    = golden);
  Core.Live_index.release live p;
  Alcotest.(check bool) "double release refused" true
    (match Core.Live_index.release live p with
    | () -> false
    | exception Invalid_argument _ -> true);
  let s2 = Core.Live_index.gc live in
  Alcotest.(check bool) "released objects reclaimed" true
    (s2.Mneme.Epoch.reclaimed_objects > 0);
  Alcotest.(check int) "nothing stranded" 0 (Core.Live_index.stranded_bytes live)

(* gc reclaims with the sizes the epoch manager recorded at birth: it
   makes no buffer reference and reads no byte, and the store's wasted
   bytes grow by exactly what it reports reclaimed. *)
let test_gc_reads_nothing () =
  let vfs = Vfs.create () in
  let live = Core.Live_index.create_mneme ~journal:"gcr.log" vfs ~file:"gcr.mneme" () in
  Seq.iter
    (fun doc -> ignore (Core.Live_index.add_document live (Collections.Synth.document_text doc)))
    (Seq.take 60 (Collections.Synth.documents churn_model));
  let store = Option.get (Core.Live_index.mneme_store live) in
  let refs () =
    List.fold_left
      (fun acc pool ->
        acc + (Mneme.Buffer_pool.stats (Option.get (Mneme.Store.buffer pool))).Util.Cache_stats.refs)
      0 (Mneme.Store.pools store)
  in
  let refs0 = refs () and wasted0 = Mneme.Store.wasted_bytes store in
  let tables0 = Mneme.Store.aux_table_bytes store and io0 = Vfs.counters vfs in
  let s = Core.Live_index.gc live in
  let io = Vfs.diff_counters ~later:(Vfs.counters vfs) ~earlier:io0 in
  Alcotest.(check bool) "stale objects reclaimed" true (s.Mneme.Epoch.reclaimed_objects > 0);
  Alcotest.(check int) "no buffer reference" 0 (refs () - refs0);
  Alcotest.(check int) "no byte read" 0 io.Vfs.bytes_read;
  (* The gc's transaction finalizes the store, superseding its tables. *)
  Alcotest.(check int) "wasted bytes = reclaimed bytes + superseded tables"
    (s.Mneme.Epoch.reclaimed_bytes + tables0)
    (Mneme.Store.wasted_bytes store - wasted0)

(* Deep fsck after a gc under a pin: the pinned epoch's sealed root is
   still a live object beside the latest root, and must be checked as a
   root envelope, not handed to the postings checker. *)
let test_deep_fsck_accepts_pinned_root () =
  let live =
    Core.Live_index.create_mneme ~journal:"fsckpin.log" (Vfs.create ()) ~file:"fsckpin.mneme" ()
  in
  let add doc =
    ignore
      (Core.Live_index.add_document live ~doc_id:doc.Collections.Synth.id
         (Collections.Synth.document_text doc))
  in
  let docs = List.of_seq (Seq.take 5 (Collections.Synth.documents churn_model)) in
  List.iteri (fun i doc -> if i < 3 then add doc) docs;
  let p = Core.Live_index.pin live in
  List.iteri (fun i doc -> if i >= 3 then add doc) docs;
  ignore (Core.Live_index.gc live);
  let store = Option.get (Core.Live_index.mneme_store live) in
  let deep () = Mneme.Check.run ~object_check:Inquery.Postings.validate store in
  let rep = deep () in
  Alcotest.(check bool) (Format.asprintf "pinned: %a" Mneme.Check.pp_report rep) true
    (Mneme.Check.ok rep);
  Core.Live_index.release live p;
  ignore (Core.Live_index.gc live);
  let rep = deep () in
  Alcotest.(check bool) (Format.asprintf "released: %a" Mneme.Check.pp_report rep) true
    (Mneme.Check.ok rep)

(* --- reopen from the published root -------------------------------- *)

let test_reopen_serves_published_epoch () =
  let vfs = Vfs.create () in
  let live = Core.Live_index.create_mneme ~journal:"ro.log" vfs ~file:"ro.mneme" () in
  let docs = Array.of_seq (Seq.take 8 (Collections.Synth.documents churn_model)) in
  Array.iter
    (fun doc ->
      ignore
        (Core.Live_index.add_document live ~doc_id:doc.Collections.Synth.id
           (Collections.Synth.document_text doc)))
    docs;
  ignore (Core.Live_index.delete_document live 1);
  let golden = List.map (fun q -> fingerprint (Core.Live_index.search ~top_k:10 live q)) queries in
  let dir = Core.Live_index.directory live in
  let e = Core.Live_index.epoch live in
  (* A fresh session rebuilt from the sealed root serves the identical
     epoch: same directory, same rankings, same epoch number. *)
  let re = Core.Live_index.open_mneme ~journal:"ro.log" vfs ~file:"ro.mneme" () in
  Alcotest.(check int) "epoch preserved" e (Core.Live_index.epoch re);
  Alcotest.(check bool) "directory preserved" true (Core.Live_index.directory re = dir);
  Alcotest.(check bool) "rankings preserved" true
    (List.map (fun q -> fingerprint (Core.Live_index.search ~top_k:10 re q)) queries = golden);
  (* And it can keep mutating: the next epoch publishes past [e]. *)
  ignore (Core.Live_index.add_document re "omega omicron");
  Alcotest.(check int) "mutation continues the epoch sequence" (e + 1)
    (Core.Live_index.epoch re);
  Alcotest.(check (list (pair string string))) "audit clean" [] (Core.Live_index.audit re)

(* --- pinned rankings are domain-independent ------------------------ *)

let test_pinned_rankings_identical_across_domains () =
  let vfs = Vfs.create () in
  let live = Core.Live_index.create_mneme ~journal:"dom.log" vfs ~file:"dom.mneme" () in
  let docs = Array.of_seq (Seq.take 10 (Collections.Synth.documents churn_model)) in
  Array.iter
    (fun doc ->
      ignore
        (Core.Live_index.add_document live ~doc_id:doc.Collections.Synth.id
           (Collections.Synth.document_text doc)))
    docs;
  ignore (Core.Live_index.delete_document live 2);
  let golden = List.map (fun q -> fingerprint (Core.Live_index.search ~top_k:10 live q)) queries in
  List.iter
    (fun d ->
      (* Per-domain sessions, each on a private copy of the image —
         the same discipline Parallel uses for unversioned serving. *)
      let workers =
        List.init d (fun _ ->
            Domain.spawn (fun () ->
                let dvfs = Vfs.create () in
                Vfs.copy_file vfs "dom.mneme" ~into:dvfs;
                Vfs.copy_file vfs "dom.log" ~into:dvfs;
                let li = Core.Live_index.open_mneme ~journal:"dom.log" dvfs ~file:"dom.mneme" () in
                let p = Core.Live_index.pin li in
                let fp =
                  List.map
                    (fun q ->
                      fingerprint (Core.Live_index.rank ~top_k:10 li (Core.Live_index.pinned li p) q))
                    queries
                in
                Core.Live_index.release li p;
                fp))
      in
      List.iter
        (fun w ->
          Alcotest.(check bool)
            (Printf.sprintf "%d-domain pinned ranking matches golden" d)
            true
            (Domain.join w = golden))
        workers)
    domain_counts

let suite =
  [
    Alcotest.test_case "every epoch crash point recovers whole" `Quick
      test_every_epoch_point_recovers_whole;
    QCheck_alcotest.to_alcotest prop_random_epoch_crash_point_whole;
    Alcotest.test_case "churn statistics stay consistent" `Quick
      test_churn_statistics_stay_consistent;
    QCheck_alcotest.to_alcotest prop_pinned_rankings_survive_churn;
    Alcotest.test_case "gc respects pins" `Quick test_gc_respects_pins;
    Alcotest.test_case "gc reads nothing it reclaims" `Quick test_gc_reads_nothing;
    Alcotest.test_case "deep fsck accepts a pinned epoch's root" `Quick
      test_deep_fsck_accepts_pinned_root;
    Alcotest.test_case "reopen serves the published epoch" `Quick
      test_reopen_serves_published_epoch;
    Alcotest.test_case "pinned rankings identical across domains" `Quick
      test_pinned_rankings_identical_across_domains;
  ]
