(* Crash-point torture: every physical I/O of a journaled workload is a
   crash point, and every crash image must recover to a consistent
   store; deliberate media corruption must be detected, never served. *)

let sweep family = Core.Torture.(sweep (prepare family))
let count r name = List.assoc name r.Core.Torture.counts

let check_clean r =
  Alcotest.(check (list (pair int string)))
    (r.Core.Torture.family ^ ": no invariant violations")
    [] r.Core.Torture.problems

let test_every_crash_point_recovers () =
  let r = sweep (Core.Torture.store ~seed:42 ~docs:10 ~update_batches:3 ()) in
  Alcotest.(check bool) "workload performs I/O" true (r.Core.Torture.points > 30);
  check_clean r;
  Alcotest.(check bool) "most crash images open" true (count r "opened" > count r "unopenable");
  (* Crashes during an apply phase leave a committed log to replay. *)
  Alcotest.(check bool) "some logs replayed" true (count r "replayed" > 0);
  (* Crashes during a log write leave an uncommitted log to discard. *)
  Alcotest.(check bool) "some logs discarded" true (count r "discarded" > 0)

(* The one random-crash-point property, shared by every crash family:
   a random seed in [1 .. seeds] and a random crash point per case, the
   replay must be clean.  Plans are prepared once per seed and shared. *)
let prop_random_crash_point ~name ~count ~seeds family =
  let plans = Hashtbl.create 4 in
  let plan_for seed =
    match Hashtbl.find_opt plans seed with
    | Some p -> p
    | None ->
      let p = Core.Torture.prepare (family seed) in
      Hashtbl.add plans seed p;
      p
  in
  QCheck.Test.make ~name ~count
    QCheck.(pair (int_range 1 seeds) (int_range 0 999))
    (fun (seed, frac) ->
      let plan = plan_for seed in
      let k = 1 + (frac * Core.Torture.points plan / 1000) in
      Core.Torture.replay plan k = [])

let prop_random_crash_point_consistent =
  prop_random_crash_point ~name:"random workload, random crash point recovers" ~count:40
    ~seeds:4 (fun seed -> Core.Torture.store ~seed ~docs:7 ~update_batches:2 ())

let prop_random_failover_point_consistent =
  prop_random_crash_point ~name:"random workload, random primary crash fails over" ~count:30
    ~seeds:3 (fun seed -> Core.Torture.failover ~seed ~docs:7 ~batches:2 ~standbys:1 ())

(* --- the crash driver ---------------------------------------------- *)

(* Every crash family at a small size, its golden run done once. *)
let small_plans =
  lazy
    (List.map Core.Torture.prepare
       [
         Core.Torture.store ~docs:4 ~update_batches:1 ();
         Core.Torture.failover ~docs:4 ~batches:1 ~standbys:1 ();
         Core.Torture.epoch ~docs:3 ();
         Core.Torture.ingest ~docs:3 ();
         Core.Torture.scrub_repair ~docs:8 ~batches:2 ~standbys:1 ~segment:0 ();
       ])

let test_replay_outside_points_rejected () =
  List.iter
    (fun plan ->
      let n = Core.Torture.points plan in
      List.iter
        (fun k ->
          match Core.Torture.replay plan k with
          | _ -> Alcotest.failf "replay %d accepted with %d crash points" k n
          | exception Invalid_argument _ -> ())
        [ 0; n + 1 ])
    (Lazy.force small_plans)

(* The driver hands every crash point to the oracle exactly once: a crash
   family's first two counts split its points. *)
let test_driver_audits_every_point () =
  List.iter
    (fun plan ->
      let r = Core.Torture.sweep plan in
      match r.Core.Torture.counts with
      | (_, recovered) :: (_, empty) :: _ ->
        Alcotest.(check int)
          (r.Core.Torture.family ^ ": every point audited")
          r.Core.Torture.points (recovered + empty)
      | _ -> Alcotest.failf "%s report lacks its outcome split" r.Core.Torture.family)
    (Lazy.force small_plans)

(* At 16 documents both live-index families fill chunk chains and
   consolidate them while a pin still reads the old chunks, objects
   among them: the golden audit then proves pinned rankings stay
   bit-identical, the gc under the pins keeps every such object chunk
   and the gc after their release reclaims them all.  Both also fill the root's chain of parts and
   rewrite its base while a pin is held. *)
let test_golden_runs_consolidate_under_pins () =
  List.iter
    (fun (name, family) ->
      let plan = Core.Torture.prepare family in
      Alcotest.(check (list string)) (name ^ ": golden run clean") []
        (Core.Torture.golden_problems plan);
      Alcotest.(check bool)
        (name ^ ": a pinned chain was consolidated")
        true
        (Core.Torture.pinned_consolidations plan > 0);
      Alcotest.(check bool)
        (name ^ ": a root base was rewritten under a pin")
        true
        (Core.Torture.pinned_base_rewrites plan > 0))
    [ ("epoch", Core.Torture.epoch ~docs:16 ()); ("ingest", Core.Torture.ingest ~docs:16 ()) ]

let test_json_escapes_problems () =
  let r =
    {
      Core.Torture.family = "store";
      points = 1;
      counts = [ ("opened", 1) ];
      problems = [ (1, {|generation object holds "gen 3" under C:\torture|}) ];
    }
  in
  let j = Core.Torture.json r in
  Alcotest.(check bool) "quotes escaped" true (Str_find.contains j {|holds \"gen 3\" under|});
  Alcotest.(check bool) "backslash escaped" true (Str_find.contains j {|C:\\torture|})

(* --- failover torture --------------------------------------------- *)

let test_every_failover_point_serves_committed_prefix () =
  let r = sweep (Core.Torture.failover ~seed:42 ~docs:10 ~batches:3 ~standbys:2 ()) in
  Alcotest.(check bool) "workload performs I/O" true (r.Core.Torture.points > 30);
  check_clean r;
  (* Once the first batch commits, every later crash leaves a standby
     holding a committed prefix to promote. *)
  Alcotest.(check bool) "most crashes promote a survivor" true
    (count r "promoted" > count r "empty")

(* --- scrub torture ------------------------------------------------- *)

let test_scrub_sweep_heals_every_segment () =
  let r = Core.Torture.scrub ~seed:42 ~docs:8 ~batches:2 ~standbys:1 () in
  check_clean r;
  Alcotest.(check bool) "several segments swept" true (r.Core.Torture.points > 2);
  Alcotest.(check int) "primary plus standby" 2 (count r "members");
  Alcotest.(check int) "one heal per rotted segment" r.Core.Torture.points (count r "heals");
  Alcotest.(check bool) "crash-during-repair points exercised" true (count r "repair_points" > 0)

let test_scrub_budget_sweep_tradeoff () =
  let rows =
    Core.Torture.scrub_budget_sweep ~seed:42 ~docs:8 ~batches:2
      ~budgets:[ 1024; 1 lsl 20 ] ()
  in
  match rows with
  | [ small; big ] ->
    (* A tighter byte budget takes at least as many steps to find the
       rot, but never a longer single stall, than an effectively
       unbounded one. *)
    Alcotest.(check bool) "tight budget takes more steps" true
      (small.Core.Torture.sw_steps >= big.Core.Torture.sw_steps);
    Alcotest.(check int) "unbounded budget detects in one step" 1
      big.Core.Torture.sw_steps;
    Alcotest.(check bool) "stall bounded by the budget" true
      (small.Core.Torture.sw_stall_ms <= big.Core.Torture.sw_stall_ms);
    Alcotest.(check bool) "repair costs I/O time" true
      (small.Core.Torture.sw_heal_ms > 0.0)
  | l -> Alcotest.failf "expected 2 sweep rows, got %d" (List.length l)

(* --- media corruption --------------------------------------------- *)

(* A store whose objects live in known, distinct segments. *)
let build_two_segment_store vfs =
  let store = Mneme.Store.create vfs "c.mneme" in
  let medium = Mneme.Store.add_pool store Mneme.Policy.medium in
  let large = Mneme.Store.add_pool store Mneme.Policy.large in
  List.iter
    (fun (p, n) ->
      Mneme.Store.attach_buffer p (Mneme.Buffer_pool.create ~name:n ~capacity:100_000 ()))
    [ (medium, "medium"); (large, "large") ];
  let a = Mneme.Store.allocate medium (Bytes.make 500 'a') in
  let b = Mneme.Store.allocate large (Bytes.make 6000 'b') in
  Mneme.Store.finalize store;
  (a, b)

let reopen vfs =
  let store = Mneme.Store.open_existing vfs "c.mneme" in
  List.iter
    (fun n ->
      Mneme.Store.attach_buffer (Mneme.Store.pool store n)
        (Mneme.Buffer_pool.create ~name:n ~capacity:100_000 ()))
    [ "medium"; "large" ];
  store

let corrupt_object_segment vfs ~file store oid =
  let pool = Option.get (Mneme.Store.pool_of_oid store oid) in
  let pseg = Option.get (Mneme.Store.locate_pseg store oid) in
  let off, len = List.assoc pseg (Mneme.Store.pool_segments pool) in
  let target = off + (len / 2) in
  let f = Vfs.open_file vfs file in
  let byte = Bytes.get (Vfs.read f ~off:target ~len:1) 0 in
  Vfs.write f ~off:target (Bytes.make 1 (Char.chr (Char.code byte lxor 0x10)))

let test_bit_flip_raises_corrupt () =
  let vfs = Vfs.create () in
  let a, b = build_two_segment_store vfs in
  let probe = reopen vfs in
  corrupt_object_segment vfs ~file:"c.mneme" probe a;
  (* A fresh session faults the damaged segment from the file: the CRC
     catches the flip and [get] refuses — garbage is never returned. *)
  let store = reopen vfs in
  Alcotest.(check bool) "corrupted object raises Corrupt" true
    (match Mneme.Store.get store a with
    | _ -> false
    | exception Mneme.Store.Corrupt _ -> true);
  (* The undamaged segment still serves. *)
  Alcotest.(check bytes) "other segment unaffected" (Bytes.make 6000 'b')
    (Mneme.Store.get store b);
  (* fsck names the damaged segment. *)
  let report = Mneme.Check.run (reopen vfs) in
  Alcotest.(check bool) "fsck flags it" false (Mneme.Check.ok report);
  Alcotest.(check bool) "as a CRC mismatch" true
    (List.exists
       (fun p -> p.Mneme.Check.what = "segment CRC32 mismatch")
       report.Mneme.Check.problems)

let test_clean_store_passes_crc_check () =
  let vfs = Vfs.create () in
  let _ = build_two_segment_store vfs in
  let report = Mneme.Check.run (reopen vfs) in
  Alcotest.(check bool) "clean" true (Mneme.Check.ok report)

(* --- engine salvage ----------------------------------------------- *)

let salvage_model =
  Collections.Docmodel.make ~name:"salv" ~n_docs:120 ~core_vocab:400 ~mean_doc_len:40.0
    ~hapax_prob:0.02 ~seed:17 ()

let test_engine_salvages_corrupt_term () =
  let p = Core.Experiment.prepare salvage_model in
  let vfs = p.Core.Experiment.vfs in
  let catalog = Core.Catalog.load vfs ~file:p.Core.Experiment.catalog_file in
  let dict = catalog.Core.Catalog.dict in
  let entry term =
    match Inquery.Dictionary.find dict term with
    | Some e -> e
    | None -> Alcotest.failf "term %s not in the synthetic vocabulary" term
  in
  (* Find two terms whose records live in different physical segments,
     then damage the first one's segment on disk. *)
  let probe = Mneme.Store.open_existing vfs p.Core.Experiment.mneme_file in
  List.iter
    (fun n ->
      Mneme.Store.attach_buffer (Mneme.Store.pool probe n)
        (Mneme.Buffer_pool.create ~name:n ~capacity:200_000 ()))
    [ "small"; "medium"; "large" ];
  (* Segment identity is (pool, pseg): pseg ids are per pool. *)
  let home oid =
    match (Mneme.Store.pool_of_oid probe oid, Mneme.Store.locate_pseg probe oid) with
    | Some pool, Some pseg -> Some (Mneme.Store.pool_name pool, pseg)
    | _ -> None
  in
  let victim = "ba" in
  let victim_home = home (entry victim).Inquery.Dictionary.locator in
  let survivor = ref None in
  Inquery.Dictionary.iter dict (fun e ->
      if !survivor = None then begin
        let loc = e.Inquery.Dictionary.locator in
        if loc >= 0 && home loc <> victim_home && home loc <> None then
          survivor := Some e.Inquery.Dictionary.term
      end);
  let survivor =
    match !survivor with
    | Some t -> t
    | None -> Alcotest.fail "no term outside the victim's segment"
  in
  corrupt_object_segment vfs ~file:p.Core.Experiment.mneme_file probe
    (entry victim).Inquery.Dictionary.locator;
  let open_engine ~salvage =
    let store =
      Core.Mneme_backend.open_session vfs ~file:p.Core.Experiment.mneme_file
        ~buffers:(Core.Experiment.default_buffers p)
    in
    Core.Engine.create ~vfs ~store ~dict ~n_docs:catalog.Core.Catalog.n_docs
      ~avg_doc_len:(Core.Catalog.avg_doc_length catalog)
      ~doc_len:(fun d ->
        if d < 0 || d >= Array.length catalog.Core.Catalog.doc_lens then 0
        else catalog.Core.Catalog.doc_lens.(d))
      ~salvage ()
  in
  (* Salvage on (the default): the query still answers, the damaged term
     is quarantined and reported. *)
  let e = open_engine ~salvage:true in
  let q = Printf.sprintf "#sum( %s %s )" victim survivor in
  let r = Core.Engine.run_query_string e q in
  Alcotest.(check bool) "survivor still ranks documents" true
    (r.Core.Engine.ranked <> []);
  (match Core.Engine.quarantined e with
  | [ (term, reason) ] ->
    Alcotest.(check string) "victim quarantined" victim term;
    Alcotest.(check bool) "reason names the CRC" true (Str_find.contains reason "CRC32")
  | q -> Alcotest.failf "expected exactly the victim quarantined, got %d entries" (List.length q));
  (* Quarantine is sticky but deduplicated. *)
  ignore (Core.Engine.run_query_string e q);
  Alcotest.(check int) "still one entry" 1 (List.length (Core.Engine.quarantined e));
  (* Salvage off: the same query aborts with Corrupt. *)
  let e = open_engine ~salvage:false in
  Alcotest.(check bool) "salvage off propagates Corrupt" true
    (match Core.Engine.run_query_string e q with
    | _ -> false
    | exception Mneme.Store.Corrupt _ -> true)

(* The shard torture at smoke size: fault one member at every serving
   I/O (plus blackouts and brownouts) and demand zero silent
   truncations and zero deadline overshoots beyond one fetch. *)
let test_shard_sweep_is_clean () =
  let r = Core.Torture.shard ~seed:7 ~docs:16 () in
  check_clean r;
  Alcotest.(check bool) "serving I/Os enumerated" true (r.Core.Torture.points > 0);
  Alcotest.(check bool) "partial results exercised" true (count r "partial" > 0);
  Alcotest.(check bool) "full-coverage results exercised" true (count r "full" > 0);
  Alcotest.(check int) "no overshoots" 0 (count r "overshoots");
  Alcotest.(check int) "no truncations" 0 (count r "truncations")

let suite =
  [
    Alcotest.test_case "every crash point recovers" `Quick test_every_crash_point_recovers;
    QCheck_alcotest.to_alcotest prop_random_crash_point_consistent;
    Alcotest.test_case "replay outside the crash points rejected" `Quick
      test_replay_outside_points_rejected;
    Alcotest.test_case "driver audits every crash point" `Quick test_driver_audits_every_point;
    Alcotest.test_case "report JSON escapes problems" `Quick test_json_escapes_problems;
    Alcotest.test_case "golden runs consolidate chains under pins" `Quick
      test_golden_runs_consolidate_under_pins;
    Alcotest.test_case "every failover point serves committed prefix" `Quick
      test_every_failover_point_serves_committed_prefix;
    QCheck_alcotest.to_alcotest prop_random_failover_point_consistent;
    Alcotest.test_case "scrub sweep heals every segment" `Quick
      test_scrub_sweep_heals_every_segment;
    Alcotest.test_case "scrub budget sweep tradeoff" `Quick test_scrub_budget_sweep_tradeoff;
    Alcotest.test_case "bit flip raises Corrupt" `Quick test_bit_flip_raises_corrupt;
    Alcotest.test_case "clean store passes CRC check" `Quick test_clean_store_passes_crc_check;
    Alcotest.test_case "engine salvages corrupt term" `Quick test_engine_salvages_corrupt_term;
    Alcotest.test_case "shard sweep is clean" `Quick test_shard_sweep_is_clean;
  ]
