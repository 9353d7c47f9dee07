(* Replica frontend: deadlines, hedging, circuit breakers. *)

let model =
  (* Big enough that each core term's inverted record spans blocks of
     its own — a degraded device then stalls every term's fetch instead
     of only the first (later terms would otherwise ride the OS cache). *)
  Collections.Docmodel.make ~name:"fe" ~n_docs:2000 ~core_vocab:1200 ~mean_doc_len:100.0
    ~hapax_prob:0.02 ~seed:97 ()

let prepared = lazy (Core.Experiment.prepare model)
let terms = [ "ba"; "be"; "bi"; "bo"; "bu"; "ca"; "ce" ]
let big_query = "#sum( " ^ String.concat " " terms ^ " )"

let fingerprint ranked =
  List.map
    (fun r -> (r.Inquery.Ranking.doc, Printf.sprintf "%.9f" r.Inquery.Ranking.score))
    ranked

let engine_fingerprint () =
  let p = Lazy.force prepared in
  let e = Core.Experiment.open_engine p Core.Experiment.Mneme_cache in
  fingerprint (Core.Engine.run_query_string ~top_k:20 e big_query).Core.Engine.ranked

let test_group_matches_single_engine () =
  let p = Lazy.force prepared in
  let fe = Core.Frontend.of_prepared p ~names:[ "a"; "b" ] in
  let r = Core.Frontend.run_query_string ~top_k:20 fe big_query in
  Alcotest.(check bool) "same ranking as a lone engine" true
    (fingerprint r.Core.Frontend.ranked = engine_fingerprint ());
  Alcotest.(check bool) "not degraded" false r.Core.Frontend.degraded;
  Alcotest.(check int) "no hedging needed" 0 r.Core.Frontend.hedged_fetches;
  Alcotest.(check bool) "latency accounted" true (r.Core.Frontend.elapsed_ms > 0.0);
  Alcotest.(check (list string)) "replica names" [ "a"; "b" ] (Core.Frontend.replica_names fe)

let test_deadline_degrades_within_one_fetch () =
  let p = Lazy.force prepared in
  (* One replica, no record cache, a breaker that never trips: every
     fetch pays the degraded device in full. *)
  let fe =
    Core.Frontend.of_prepared p ~names:[ "solo" ] ~buffers:Core.Buffer_sizing.no_cache
      ~window:1000 ~trip_after:1000
  in
  let vfs = Core.Frontend.replica_vfs fe ~name:"solo" in
  Vfs.set_fault vfs
    (Vfs.Fault.degraded_device ~file:p.Core.Experiment.mneme_file ~ms:120.0);
  let max_fetch =
    List.fold_left
      (fun m q ->
        Vfs.purge_os_cache vfs;
        Float.max m (Core.Frontend.run_query_string fe q).Core.Frontend.elapsed_ms)
      0.0 terms
  in
  Vfs.purge_os_cache vfs;
  let full = Core.Frontend.run_query_string fe big_query in
  Alcotest.(check bool) "full run is slow but complete" false full.Core.Frontend.degraded;
  let deadline = max_fetch *. 1.5 in
  Alcotest.(check bool) "deadline cuts the full run short" true
    (full.Core.Frontend.elapsed_ms > deadline);
  Vfs.purge_os_cache vfs;
  let r = Core.Frontend.run_query_string ~deadline_ms:deadline fe big_query in
  Alcotest.(check bool) "deadline hit" true r.Core.Frontend.deadline_hit;
  Alcotest.(check bool) "flagged degraded" true r.Core.Frontend.degraded;
  Alcotest.(check bool) "some terms skipped" true (r.Core.Frontend.skipped_terms <> []);
  Alcotest.(check bool) "terms scored so far still ranked" true (r.Core.Frontend.ranked <> []);
  Alcotest.(check bool)
    (Printf.sprintf "overshoot bounded by one fetch (%.1f <= %.1f + %.1f)"
       r.Core.Frontend.elapsed_ms deadline max_fetch)
    true
    (r.Core.Frontend.elapsed_ms <= deadline +. max_fetch +. 1.0)

let test_hedging_rescues_and_breaker_trips () =
  let p = Lazy.force prepared in
  let fe =
    Core.Frontend.of_prepared p ~names:[ "a"; "b" ] ~buffers:Core.Buffer_sizing.no_cache
      ~window:4 ~trip_after:2 ~cooldown_ms:1.0e6
  in
  Vfs.set_fault
    (Core.Frontend.replica_vfs fe ~name:"a")
    (Vfs.Fault.degraded_device ~file:p.Core.Experiment.mneme_file ~ms:150.0);
  let r = Core.Frontend.run_query_string ~top_k:20 fe big_query in
  Alcotest.(check bool) "stalls hedged to the healthy replica" true
    (r.Core.Frontend.hedged_fetches >= 1);
  Alcotest.(check bool) "served in full despite the sick replica" false
    r.Core.Frontend.degraded;
  Alcotest.(check string) "healthy replica took over" "b" r.Core.Frontend.served_by;
  Alcotest.(check string) "preference moved" "b" (Core.Frontend.preferred fe);
  Alcotest.(check bool) "ranking unharmed" true
    (fingerprint r.Core.Frontend.ranked = engine_fingerprint ());
  Alcotest.(check bool) "breaker opened on the sick replica" true
    (Core.Frontend.breaker fe ~name:"a" = Core.Frontend.Open);
  (* With the breaker open, traffic routes straight to b: no hedges. *)
  let r2 = Core.Frontend.run_query_string fe big_query in
  Alcotest.(check int) "no hedging once open" 0 r2.Core.Frontend.hedged_fetches;
  Alcotest.(check bool) "still healthy" false r2.Core.Frontend.degraded

let test_breaker_recloses_after_good_probe () =
  let p = Lazy.force prepared in
  let fe =
    Core.Frontend.of_prepared p ~names:[ "a"; "b" ] ~buffers:Core.Buffer_sizing.no_cache
      ~window:2 ~trip_after:2 ~cooldown_ms:50.0
  in
  let vfs_a = Core.Frontend.replica_vfs fe ~name:"a" in
  Vfs.set_fault vfs_a
    (Vfs.Fault.degraded_device ~file:p.Core.Experiment.mneme_file ~ms:150.0);
  ignore (Core.Frontend.run_query_string fe big_query);
  Alcotest.(check bool) "tripped" true
    (Core.Frontend.breaker fe ~name:"a" = Core.Frontend.Open);
  (* Device repaired; after the cooldown the next fetch is a probe. *)
  Vfs.clear_fault vfs_a;
  Core.Frontend.tick fe 60.0;
  let r = Core.Frontend.run_query_string fe big_query in
  Alcotest.(check bool) "good probe closes the breaker" true
    (Core.Frontend.breaker fe ~name:"a" = Core.Frontend.Closed);
  Alcotest.(check bool) "query fine" false r.Core.Frontend.degraded

let test_failed_probe_reopens () =
  let p = Lazy.force prepared in
  let fe =
    Core.Frontend.of_prepared p ~names:[ "a"; "b" ] ~buffers:Core.Buffer_sizing.no_cache
      ~window:2 ~trip_after:2 ~cooldown_ms:50.0
  in
  Vfs.set_fault
    (Core.Frontend.replica_vfs fe ~name:"a")
    (Vfs.Fault.degraded_device ~file:p.Core.Experiment.mneme_file ~ms:150.0);
  ignore (Core.Frontend.run_query_string fe big_query);
  Alcotest.(check bool) "tripped" true
    (Core.Frontend.breaker fe ~name:"a" = Core.Frontend.Open);
  Core.Frontend.tick fe 60.0;
  (* Still sick: the probe stalls, gets hedged, and the breaker reopens. *)
  let r = Core.Frontend.run_query_string fe big_query in
  Alcotest.(check bool) "bad probe reopens" true
    (Core.Frontend.breaker fe ~name:"a" = Core.Frontend.Open);
  Alcotest.(check bool) "probe hedged" true (r.Core.Frontend.hedged_fetches >= 1);
  Alcotest.(check bool) "query still served" false r.Core.Frontend.degraded

let test_unroutable_terms_degrade () =
  let p = Lazy.force prepared in
  let fe =
    Core.Frontend.of_prepared p ~names:[ "solo" ] ~buffers:Core.Buffer_sizing.no_cache
      ~window:1 ~trip_after:1 ~cooldown_ms:50.0
  in
  let vfs = Core.Frontend.replica_vfs fe ~name:"solo" in
  Vfs.set_fault vfs
    (Vfs.Fault.degraded_device ~file:p.Core.Experiment.mneme_file ~ms:200.0);
  let r = Core.Frontend.run_query_string fe big_query in
  Alcotest.(check bool) "first stall opens the lone breaker" true
    (Core.Frontend.breaker fe ~name:"solo" = Core.Frontend.Open);
  Alcotest.(check bool) "rest of the query degrades" true r.Core.Frontend.degraded;
  Alcotest.(check bool) "not a deadline problem" false r.Core.Frontend.deadline_hit;
  Alcotest.(check bool) "unserved terms reported" true
    (List.length r.Core.Frontend.skipped_terms >= List.length terms - 1);
  (* Repair, wait out the cooldown: service restores itself. *)
  Vfs.clear_fault vfs;
  Core.Frontend.tick fe 60.0;
  let r2 = Core.Frontend.run_query_string fe big_query in
  Alcotest.(check bool) "recovered" false r2.Core.Frontend.degraded;
  Alcotest.(check bool) "breaker closed again" true
    (Core.Frontend.breaker fe ~name:"solo" = Core.Frontend.Closed)

(* [term]'s physical segment in one replica's copy of the store: its
   pool, its id and its file extent [(off, len)]. *)
let segment_of p vfs term =
  let catalog = Core.Catalog.load p.Core.Experiment.vfs ~file:p.Core.Experiment.catalog_file in
  let entry = Option.get (Inquery.Dictionary.find catalog.Core.Catalog.dict term) in
  let probe = Mneme.Store.open_existing vfs p.Core.Experiment.mneme_file in
  List.iter
    (fun name ->
      Mneme.Store.attach_buffer (Mneme.Store.pool probe name)
        (Mneme.Buffer_pool.create ~name ~capacity:500_000 ()))
    [ "small"; "medium"; "large" ];
  let locator = entry.Inquery.Dictionary.locator in
  let pool = Option.get (Mneme.Store.pool_of_oid probe locator) in
  let pseg = Option.get (Mneme.Store.locate_pseg probe locator) in
  (Mneme.Store.pool_name pool, pseg, List.assoc pseg (Mneme.Store.pool_segments pool))

let segment_extent p vfs term =
  let _, _, extent = segment_of p vfs term in
  extent

(* A corrupt fetch is reported once per (replica, term), recorded on the
   frontend's read-repair worklist, and served via a healthy replica —
   the query itself never sees the damage. *)
let test_corrupt_fetch_recorded_and_hedged () =
  let p = Lazy.force prepared in
  let events = ref [] in
  let fe =
    Core.Frontend.of_prepared p ~names:[ "a"; "b" ] ~buffers:Core.Buffer_sizing.no_cache
      ~on_corrupt:(fun ~replica ~term ~reason -> events := (replica, term, reason) :: !events)
  in
  (* Flip a byte in the middle of ba's physical segment in replica a's
     copy of the store. *)
  let vfs_a = Core.Frontend.replica_vfs fe ~name:"a" in
  let off, len = segment_extent p vfs_a "ba" in
  let f = Vfs.open_file vfs_a p.Core.Experiment.mneme_file in
  let target = off + (len / 2) in
  let byte = Bytes.get (Vfs.read f ~off:target ~len:1) 0 in
  Vfs.write f ~off:target (Bytes.make 1 (Char.chr (Char.code byte lxor 0x10)));
  let r = Core.Frontend.run_query_string ~top_k:20 fe big_query in
  Alcotest.(check bool) "served in full despite the rot" false r.Core.Frontend.degraded;
  Alcotest.(check (list reject)) "no failed terms" [] r.Core.Frontend.failed_terms;
  Alcotest.(check bool) "ranking matches a healthy engine" true
    (fingerprint r.Core.Frontend.ranked = engine_fingerprint ());
  (match Core.Frontend.corrupt_fetches fe with
  | [ e ] ->
    Alcotest.(check string) "sick replica named" "a" e.Core.Frontend.replica;
    Alcotest.(check string) "term named" "ba" e.Core.Frontend.term;
    Alcotest.(check bool) "reason carries the CRC complaint" true
      (Str_find.contains e.Core.Frontend.reason "CRC")
  | l -> Alcotest.fail (Printf.sprintf "expected 1 corrupt fetch, got %d" (List.length l)));
  Alcotest.(check int) "hook fired" 1 (List.length !events);
  (match !events with
  | [ (replica, term, _) ] ->
    Alcotest.(check string) "hook replica" "a" replica;
    Alcotest.(check string) "hook term" "ba" term
  | _ -> assert false);
  (* Re-running the query neither duplicates the worklist entry nor
     re-fires the hook. *)
  ignore (Core.Frontend.run_query_string fe big_query);
  Alcotest.(check int) "worklist deduplicated" 1
    (List.length (Core.Frontend.corrupt_fetches fe));
  Alcotest.(check int) "hook fires once per (replica, term)" 1 (List.length !events);
  (* mark_repaired clears the entry exactly once. *)
  Alcotest.(check bool) "mark_repaired clears" true
    (Core.Frontend.mark_repaired fe ~replica:"a" ~term:"ba");
  Alcotest.(check (list reject)) "worklist empty" []
    (Core.Frontend.corrupt_fetches fe |> List.map (fun _ -> assert false));
  Alcotest.(check bool) "second mark_repaired is false" false
    (Core.Frontend.mark_repaired fe ~replica:"a" ~term:"ba");
  Alcotest.(check bool) "unknown entry is false" false
    (Core.Frontend.mark_repaired fe ~replica:"b" ~term:"ba")

(* A query that fetches nothing is attributed to the replica it was
   routed to, not to the first one: here every term is out of
   vocabulary and the first replica's breaker is open. *)
let test_zero_fetch_query_served_by_routed_replica () =
  let p = Lazy.force prepared in
  let fe =
    Core.Frontend.of_prepared p ~names:[ "a"; "b" ] ~buffers:Core.Buffer_sizing.no_cache
      ~window:4 ~trip_after:2 ~cooldown_ms:1.0e6
  in
  Vfs.set_fault
    (Core.Frontend.replica_vfs fe ~name:"a")
    (Vfs.Fault.degraded_device ~file:p.Core.Experiment.mneme_file ~ms:150.0);
  ignore (Core.Frontend.run_query_string fe big_query);
  Alcotest.(check bool) "a's breaker open" true
    (Core.Frontend.breaker fe ~name:"a" = Core.Frontend.Open);
  let clock name = Vfs.Clock.snapshot (Vfs.clock (Core.Frontend.replica_vfs fe ~name)) in
  let a0 = clock "a" and b0 = clock "b" in
  let r = Core.Frontend.run_query_string fe "#sum( zzqx zzqy )" in
  let a = Vfs.Clock.diff ~later:(clock "a") ~earlier:a0 in
  let b = Vfs.Clock.diff ~later:(clock "b") ~earlier:b0 in
  Alcotest.(check string) "served by the routed replica" "b" r.Core.Frontend.served_by;
  Alcotest.(check bool) "the query did cost CPU" true (r.Core.Frontend.elapsed_ms > 0.0);
  Alcotest.(check (float 0.0)) "nothing charged to the open replica" 0.0 (Vfs.Clock.wall_ms a);
  Alcotest.(check (float 1e-9)) "the CPU charged to the routed one" r.Core.Frontend.elapsed_ms
    b.Vfs.Clock.engine_cpu_ms

let resident_frames fe =
  match List.assoc_opt "frame" (Core.Frontend.cache_tiers fe) with
  | Some s -> s.Util.Cache_stats.resident_entries
  | None -> Alcotest.fail "frame tier missing from the report"

let file_accesses vfs = (Vfs.counters vfs).Vfs.file_accesses

(* Rot ba's segment in [vfs]'s copy at the next physical read. *)
let rot_ba p vfs =
  let off, len = segment_extent p vfs "ba" in
  Vfs.set_fault vfs
    (Vfs.Fault.flip_bits_on_read ~io:1 ~seed:7 ~first:off ~last:(off + len - 1) ~bits:3 ())

(* Frames hold only segments that passed their CRC check: a read that
   failed it on every replica leaves no frame, and a hedged read leaves
   the healthy replica's segment as a frame. *)
let test_frames_never_cache_corrupt_reads () =
  let p = Lazy.force prepared in
  let solo =
    Core.Frontend.of_prepared p ~names:[ "solo" ] ~buffers:Core.Buffer_sizing.no_cache
      ~block_cache_bytes:(1 lsl 22)
  in
  let vfs = Core.Frontend.replica_vfs solo ~name:"solo" in
  let segment term =
    let pool, pseg, _ = segment_of p vfs term in
    (pool, pseg)
  in
  let others = List.sort_uniq compare (List.map segment (List.filter (( <> ) "ba") terms)) in
  Alcotest.(check bool) "no other query term shares ba's segment" false
    (List.mem (segment "ba") others);
  rot_ba p vfs;
  let r = Core.Frontend.run_query_string ~top_k:20 solo big_query in
  Alcotest.(check (list string)) "ba failed" [ "ba" ] (List.map fst r.Core.Frontend.failed_terms);
  Alcotest.(check int) "every other segment is a frame, ba's is not" (List.length others)
    (resident_frames solo);
  Vfs.clear_fault vfs;
  let before = file_accesses vfs in
  let r2 = Core.Frontend.run_query_string ~top_k:20 solo big_query in
  Alcotest.(check (list string)) "ba is fetched again and fails again" [ "ba" ]
    (List.map fst r2.Core.Frontend.failed_terms);
  Alcotest.(check bool) "the failed record went back to the store" true
    (file_accesses vfs > before);
  let fe =
    Core.Frontend.of_prepared p ~names:[ "a"; "b" ] ~buffers:Core.Buffer_sizing.no_cache
      ~block_cache_bytes:(1 lsl 22)
  in
  let vfs_a = Core.Frontend.replica_vfs fe ~name:"a" in
  let vfs_b = Core.Frontend.replica_vfs fe ~name:"b" in
  rot_ba p vfs_a;
  let r = Core.Frontend.run_query_string ~top_k:20 fe big_query in
  Alcotest.(check bool) "hedged, not degraded" true
    (r.Core.Frontend.hedged_fetches >= 1 && not r.Core.Frontend.degraded);
  Alcotest.(check (list string)) "a's copy of ba was corrupt" [ "ba" ]
    (List.map (fun e -> e.Core.Frontend.term) (Core.Frontend.corrupt_fetches fe));
  Alcotest.(check int) "every segment is a frame, ba's from b" (List.length others + 1)
    (resident_frames fe);
  Vfs.clear_fault vfs_a;
  let a0 = file_accesses vfs_a and b0 = file_accesses vfs_b in
  let r2 = Core.Frontend.run_query_string ~top_k:20 fe big_query in
  Alcotest.(check int) "rerun reads nothing from a" a0 (file_accesses vfs_a);
  Alcotest.(check int) "rerun reads nothing from b" b0 (file_accesses vfs_b);
  Alcotest.(check bool) "rerun ranks bit-identically" true
    (fingerprint r2.Core.Frontend.ranked = fingerprint r.Core.Frontend.ranked);
  Alcotest.(check bool) "and matches a healthy engine" true
    (fingerprint r2.Core.Frontend.ranked = engine_fingerprint ())

(* A one-replica frontend like [of_prepared]'s, with transient buffers
   and a breaker that never trips, whose store reports every physical
   fetch — a call to its [fetch], not its [fetch_resident] — to
   [on_fetch]. *)
let counting_frontend p ~on_fetch =
  let catalog = Core.Catalog.load p.Core.Experiment.vfs ~file:p.Core.Experiment.catalog_file in
  let vfs = Vfs.create ~cost_model:(Vfs.cost_model p.Core.Experiment.vfs) () in
  Vfs.copy_file p.Core.Experiment.vfs p.Core.Experiment.mneme_file ~into:vfs;
  Vfs.purge_os_cache vfs;
  let store =
    Core.Mneme_backend.open_session vfs ~file:p.Core.Experiment.mneme_file
      ~buffers:Core.Buffer_sizing.no_cache
  in
  let fetch entry =
    on_fetch entry.Inquery.Dictionary.term;
    store.Core.Index_store.fetch entry
  in
  let doc_lens = catalog.Core.Catalog.doc_lens in
  Core.Frontend.create
    ~replicas:[ { Core.Frontend.name = "solo"; vfs; store = { store with fetch } } ]
    ~dict:catalog.Core.Catalog.dict ~n_docs:catalog.Core.Catalog.n_docs
    ~avg_doc_len:(Core.Catalog.avg_doc_length catalog)
    ~doc_len:(fun d -> if d < 0 || d >= Array.length doc_lens then 0 else doc_lens.(d))
    ~window:1000 ~trip_after:1000 ~block_cache_bytes:(1 lsl 22) ()

(* The deadline counts physical fetches only: once it has passed, no
   term is fetched, while a record whose segment is a resident frame
   costs no simulated time and is used even past the deadline. *)
let test_frames_under_deadline () =
  let p = Lazy.force prepared in
  let fetched = ref [] in
  let fe = counting_frontend p ~on_fetch:(fun term -> fetched := term :: !fetched) in
  let vfs = Core.Frontend.replica_vfs fe ~name:"solo" in
  let stall () =
    Vfs.set_fault vfs (Vfs.Fault.degraded_device ~file:p.Core.Experiment.mneme_file ~ms:120.0)
  in
  stall ();
  let r = Core.Frontend.run_query_string ~top_k:20 ~deadline_ms:100.0 fe big_query in
  Alcotest.(check bool) "deadline skipped terms" true (r.Core.Frontend.skipped_terms <> []);
  (* One stalled fetch outlasts the whole budget, so the first one
     spends it. *)
  Alcotest.(check int) "one physical fetch, none after the deadline" 1 (List.length !fetched);
  Alcotest.(check bool) "no skipped term was fetched" true
    (List.for_all (fun term -> not (List.mem term !fetched)) r.Core.Frontend.skipped_terms);
  Vfs.clear_fault vfs;
  let healthy = Core.Frontend.run_query_string ~top_k:20 fe big_query in
  Alcotest.(check bool) "healed run is complete" false healthy.Core.Frontend.degraded;
  stall ();
  let before = file_accesses vfs in
  let warm = Core.Frontend.run_query_string ~top_k:20 ~deadline_ms:100.0 fe big_query in
  Alcotest.(check int) "a warm query touches no device" before (file_accesses vfs);
  Alcotest.(check bool) "warm query is full on the stalled device" false
    warm.Core.Frontend.degraded;
  Alcotest.(check bool) "warm ranking bit-identical" true
    (fingerprint warm.Core.Frontend.ranked = fingerprint healthy.Core.Frontend.ranked);
  (* A cold term first: its stalled fetch carries the query past the
     deadline, and the warm terms after it are still served. *)
  let mixed = "#sum( ci " ^ String.concat " " terms ^ " )" in
  let r = Core.Frontend.run_query_string ~top_k:20 ~deadline_ms:100.0 fe mixed in
  Alcotest.(check bool)
    (Printf.sprintf "past the deadline (%.1f ms)" r.Core.Frontend.elapsed_ms)
    true
    (r.Core.Frontend.elapsed_ms > 100.0);
  Alcotest.(check (list string)) "nothing skipped" [] r.Core.Frontend.skipped_terms;
  Alcotest.(check bool) "not degraded" false r.Core.Frontend.degraded;
  let e = Core.Experiment.open_engine p Core.Experiment.Mneme_cache in
  Alcotest.(check bool) "full ranking" true
    (fingerprint r.Core.Frontend.ranked
    = fingerprint (Core.Engine.run_query_string ~top_k:20 e mixed).Core.Engine.ranked)

let test_validation () =
  let p = Lazy.force prepared in
  let invalid f = match f () with _ -> false | exception Invalid_argument _ -> true in
  Alcotest.(check bool) "empty group" true
    (invalid (fun () -> Core.Frontend.of_prepared p ~names:[]));
  Alcotest.(check bool) "duplicate names" true
    (invalid (fun () -> Core.Frontend.of_prepared p ~names:[ "x"; "x" ]));
  Alcotest.(check bool) "bad trip_after" true
    (invalid (fun () -> Core.Frontend.of_prepared p ~names:[ "x" ] ~window:2 ~trip_after:3));
  let fe = Core.Frontend.of_prepared p ~names:[ "x" ] in
  Alcotest.(check bool) "bad deadline" true
    (invalid (fun () -> Core.Frontend.run_query_string ~deadline_ms:0.0 fe "ba"));
  Alcotest.(check bool) "negative tick" true
    (invalid (fun () -> Core.Frontend.tick fe (-1.0)))

let suite =
  [
    Alcotest.test_case "group matches single engine" `Quick test_group_matches_single_engine;
    Alcotest.test_case "deadline degrades within one fetch" `Quick
      test_deadline_degrades_within_one_fetch;
    Alcotest.test_case "hedging rescues, breaker trips" `Quick
      test_hedging_rescues_and_breaker_trips;
    Alcotest.test_case "good probe recloses breaker" `Quick
      test_breaker_recloses_after_good_probe;
    Alcotest.test_case "failed probe reopens breaker" `Quick test_failed_probe_reopens;
    Alcotest.test_case "unroutable terms degrade" `Quick test_unroutable_terms_degrade;
    Alcotest.test_case "corrupt fetch recorded and hedged" `Quick
      test_corrupt_fetch_recorded_and_hedged;
    Alcotest.test_case "zero-fetch query served by the routed replica" `Quick
      test_zero_fetch_query_served_by_routed_replica;
    Alcotest.test_case "frames never cache corrupt reads" `Quick
      test_frames_never_cache_corrupt_reads;
    Alcotest.test_case "frames under a deadline" `Quick test_frames_under_deadline;
    Alcotest.test_case "validation" `Quick test_validation;
  ]
