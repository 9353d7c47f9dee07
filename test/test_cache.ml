(* The tiered read-path caches: the block cache of segment frames and
   the query-result LRU, unified tier statistics, frontend integration,
   churn coherence. *)

(* --- Util.Block_cache ---------------------------------------------- *)

(* Recency, budget and counters are Util.Lru's (its model property);
   these check what the facade adds: the epoch tag, the key and the
   charge. *)

let test_block_cache_retain () =
  let bc = Util.Block_cache.create ~capacity_bytes:(1 lsl 20) in
  let frame = Bytes.make 8 'f' in
  List.iter (fun e -> Util.Block_cache.insert_frame bc ~owner:e ~seg:0 ~epoch:e frame) [ 1; 2; 3; 4 ];
  Util.Block_cache.insert_frame bc ~owner:5 ~seg:1 ~epoch:2 frame;
  Alcotest.(check (list int)) "epochs" [ 1; 2; 3; 4 ] (Util.Block_cache.epochs bc);
  Alcotest.(check int) "three dropped" 3 (Util.Block_cache.retain bc ~keep:(fun e -> e = 2));
  Alcotest.(check (list int)) "only kept epoch" [ 2 ] (Util.Block_cache.epochs bc);
  Alcotest.(check bool) "kept frames still hit" true
    (Util.Block_cache.find_frame bc ~owner:2 ~seg:0 <> None
    && Util.Block_cache.find_frame bc ~owner:5 ~seg:1 <> None);
  let off = Util.Block_cache.create ~capacity_bytes:0 in
  Util.Block_cache.insert_frame off ~owner:1 ~seg:0 ~epoch:1 frame;
  Alcotest.(check int) "zero capacity disables" 0
    (Util.Block_cache.stats off).Util.Cache_stats.resident_entries;
  Alcotest.(check bool) "zero capacity misses frames" true
    (Util.Block_cache.find_frame off ~owner:1 ~seg:0 = None)

let test_frame_basics () =
  let bc = Util.Block_cache.create ~capacity_bytes:4096 in
  Alcotest.(check bool) "miss on empty" true
    (Util.Block_cache.find_frame bc ~owner:1 ~seg:1 = None);
  let image = Bytes.of_string "a verified segment image" in
  Util.Block_cache.insert_frame bc ~owner:1 ~seg:1 ~epoch:3 image;
  (match Util.Block_cache.find_frame bc ~owner:1 ~seg:1 with
  | Some b -> Alcotest.(check bool) "same bytes back" true (b == image)
  | None -> Alcotest.fail "expected a hit");
  Alcotest.(check bool) "other owner misses" true
    (Util.Block_cache.find_frame bc ~owner:2 ~seg:1 = None);
  Alcotest.(check bool) "other segment misses" true
    (Util.Block_cache.find_frame bc ~owner:1 ~seg:2 = None);
  Alcotest.(check bool) "residency test" true
    (Util.Block_cache.frame_resident bc ~owner:1 ~seg:1
    && not (Util.Block_cache.frame_resident bc ~owner:1 ~seg:2));
  let f = Util.Block_cache.stats bc in
  Alcotest.(check int) "refs (residency tests count nothing)" 4 f.Util.Cache_stats.refs;
  Alcotest.(check int) "hits" 1 f.Util.Cache_stats.hits;
  Alcotest.(check int) "resident" 1 f.Util.Cache_stats.resident_entries;
  Alcotest.(check int) "charged length plus overhead" (Bytes.length image + 48)
    f.Util.Cache_stats.resident_bytes;
  (* The epoch is a tag, not part of the key: re-inserting replaces the
     frame and re-tags it. *)
  Alcotest.(check (list int)) "tagged" [ 3 ] (Util.Block_cache.epochs bc);
  let patched = Bytes.of_string "a patched segment image" in
  Util.Block_cache.insert_frame bc ~owner:1 ~seg:1 ~epoch:4 patched;
  Alcotest.(check (list int)) "re-tagged" [ 4 ] (Util.Block_cache.epochs bc);
  Alcotest.(check int) "still one frame" 1
    (Util.Block_cache.stats bc).Util.Cache_stats.resident_entries;
  match Util.Block_cache.find_frame bc ~owner:1 ~seg:1 with
  | Some b -> Alcotest.(check bool) "the new image" true (b == patched)
  | None -> Alcotest.fail "expected the replaced frame"

(* --- Core.Result_cache --------------------------------------------- *)

let test_result_cache_epoch_purge () =
  let rc = Core.Result_cache.create ~capacity_bytes:(1 lsl 20) in
  Core.Result_cache.insert rc ~key:"q" ~epoch:3 ~cost:100 [ 1 ];
  Alcotest.(check bool) "hit at its epoch" true
    (Core.Result_cache.find rc ~key:"q" ~epoch:3 = Some [ 1 ]);
  (* A probe under any other epoch purges the stale entry on the spot. *)
  Alcotest.(check bool) "miss at a newer epoch" true
    (Core.Result_cache.find rc ~key:"q" ~epoch:4 = None);
  Alcotest.(check (list int)) "purged, not resident" [] (Core.Result_cache.epochs rc);
  Alcotest.(check bool) "gone even at its own epoch" true
    (Core.Result_cache.find rc ~key:"q" ~epoch:3 = None);
  let s = Core.Result_cache.stats rc in
  Alcotest.(check int) "one hit" 1 s.Util.Cache_stats.hits;
  Alcotest.(check int) "one invalidation" 1 s.Util.Cache_stats.invalidations

(* --- unified tier statistics --------------------------------------- *)

let test_cache_stats_merge () =
  let a =
    {
      Util.Cache_stats.refs = 10;
      hits = 4;
      evictions = 1;
      invalidations = 2;
      resident_bytes = 100;
      resident_entries = 3;
    }
  in
  let b =
    {
      Util.Cache_stats.refs = 5;
      hits = 5;
      evictions = 0;
      invalidations = 1;
      resident_bytes = 50;
      resident_entries = 2;
    }
  in
  let m = Util.Cache_stats.merge [ a; b; Util.Cache_stats.zero ] in
  Alcotest.(check int) "refs" 15 m.Util.Cache_stats.refs;
  Alcotest.(check int) "hits" 9 m.Util.Cache_stats.hits;
  Alcotest.(check int) "misses" 6 (Util.Cache_stats.misses m);
  Alcotest.(check int) "invalidations" 3 m.Util.Cache_stats.invalidations;
  Alcotest.(check int) "resident bytes" 150 m.Util.Cache_stats.resident_bytes;
  Alcotest.(check bool) "hit rate" true (abs_float (Util.Cache_stats.hit_rate m -. 0.6) < 1e-9);
  Alcotest.(check bool) "empty merge is zero" true
    (Util.Cache_stats.merge [] = Util.Cache_stats.zero)

(* --- frontend integration ------------------------------------------ *)

let model =
  Collections.Docmodel.make ~name:"cache-fe" ~n_docs:1200 ~core_vocab:600 ~mean_doc_len:60.0
    ~hapax_prob:0.02 ~seed:71 ()

let prepared = lazy (Core.Experiment.prepare model)
let query = "#sum( ba be bi bo )"

let fingerprint ranked =
  List.map
    (fun r -> (r.Inquery.Ranking.doc, Printf.sprintf "%.9f" r.Inquery.Ranking.score))
    ranked

let result_tier fe =
  match List.assoc_opt "result" (Core.Frontend.cache_tiers fe) with
  | Some s -> s
  | None -> Alcotest.fail "result tier missing from the report"

let test_frontend_result_cache () =
  let p = Lazy.force prepared in
  let fe =
    Core.Frontend.of_prepared p ~names:[ "a" ] ~result_cache_bytes:(1 lsl 16)
      ~block_cache_bytes:(1 lsl 20)
  in
  let r1 = Core.Frontend.run_query_string ~top_k:15 fe query in
  Alcotest.(check bool) "first run computes" false r1.Core.Frontend.cached;
  let r2 = Core.Frontend.run_query_string ~top_k:15 fe query in
  Alcotest.(check bool) "second run served from cache" true r2.Core.Frontend.cached;
  Alcotest.(check bool) "bit-identical ranking" true
    (fingerprint r2.Core.Frontend.ranked = fingerprint r1.Core.Frontend.ranked);
  Alcotest.(check bool) "no work at all" true
    (r2.Core.Frontend.elapsed_ms = 0.0 && r2.Core.Frontend.postings_decoded = 0);
  Alcotest.(check int) "same epoch" r1.Core.Frontend.epoch r2.Core.Frontend.epoch;
  (* A different k is a different answer, hence a different key. *)
  let r3 = Core.Frontend.run_query_string ~top_k:5 fe query in
  Alcotest.(check bool) "different k misses" false r3.Core.Frontend.cached;
  (* Surface variants of the same normalised query share the entry:
     extra whitespace re-prints identically. *)
  let r4 = Core.Frontend.run_query_string ~top_k:15 fe "#sum(  ba   be bi bo )" in
  Alcotest.(check bool) "canonical key unifies spacing" true r4.Core.Frontend.cached;
  (* Floored queries bypass the cache in both directions. *)
  let r5 = Core.Frontend.run_query_string ~top_k:15 ~floor:0.1 fe query in
  Alcotest.(check bool) "floor bypasses" false r5.Core.Frontend.cached;
  let s = result_tier fe in
  Alcotest.(check int) "two hits" 2 s.Util.Cache_stats.hits;
  Alcotest.(check bool) "entries resident" true (s.Util.Cache_stats.resident_entries >= 1)

let frames fe =
  match List.assoc_opt "frame" (Core.Frontend.cache_tiers fe) with
  | Some s -> s
  | None -> Alcotest.fail "frame tier missing from the report"

(* With the block cache on, a query's second run reads every record from
   a resident segment frame: no store read at all, so its latency is its
   CPU alone.  With the block cache off the second run fetches again. *)
let test_frontend_frames () =
  let p = Lazy.force prepared in
  let second_run ~block_cache_bytes =
    let fe =
      Core.Frontend.of_prepared p ~names:[ "a" ] ~buffers:Core.Buffer_sizing.no_cache
        ~block_cache_bytes
    in
    let vfs = Core.Frontend.replica_vfs fe ~name:"a" in
    let r1 = Core.Frontend.run_query_string ~top_k:15 fe query in
    let c0 = Vfs.counters vfs and k0 = Vfs.Clock.snapshot (Vfs.clock vfs) in
    let f0 = if block_cache_bytes > 0 then Some (frames fe) else None in
    let r2 = Core.Frontend.run_query_string ~top_k:15 fe query in
    ( fe,
      f0,
      r1,
      r2,
      Vfs.diff_counters ~later:(Vfs.counters vfs) ~earlier:c0,
      Vfs.Clock.diff ~later:(Vfs.Clock.snapshot (Vfs.clock vfs)) ~earlier:k0 )
  in
  let fe, f0, r1, r2, c, k = second_run ~block_cache_bytes:(1 lsl 22) in
  Alcotest.(check bool) "bit-identical ranking" true
    (fingerprint r2.Core.Frontend.ranked = fingerprint r1.Core.Frontend.ranked);
  Alcotest.(check int) "no file access" 0 c.Vfs.file_accesses;
  Alcotest.(check int) "no bytes read" 0 c.Vfs.bytes_read;
  Alcotest.(check (float 0.0)) "no disk, syscall or copy time" 0.0 (Vfs.Clock.sys_io_ms k);
  Alcotest.(check bool) "the query did cost CPU" true (r2.Core.Frontend.elapsed_ms > 0.0);
  Alcotest.(check (float 1e-9)) "latency is the CPU charge alone" r2.Core.Frontend.elapsed_ms
    k.Vfs.Clock.engine_cpu_ms;
  Alcotest.(check string) "served by the routed replica" "a" r2.Core.Frontend.served_by;
  (match f0 with
  | None -> assert false
  | Some f0 ->
    let f1 = frames fe in
    Alcotest.(check bool) "the first run misses" true (Util.Cache_stats.misses f0 > 0);
    Alcotest.(check int) "the second run misses nothing" (Util.Cache_stats.misses f0)
      (Util.Cache_stats.misses f1);
    Alcotest.(check bool) "and hits frames" true
      (f1.Util.Cache_stats.hits > f0.Util.Cache_stats.hits));
  let _, _, r1, r2, c, _ = second_run ~block_cache_bytes:0 in
  Alcotest.(check bool) "block cache off: the second run fetches again" true
    (c.Vfs.file_accesses > 0 && c.Vfs.bytes_read > 0);
  Alcotest.(check bool) "same ranking either way" true
    (fingerprint r2.Core.Frontend.ranked = fingerprint r1.Core.Frontend.ranked)

(* A budget that holds every frame one pass reads serves a second pass
   over the same queries from memory: no file access at all.  Frames
   are the budget's only entries, so nothing a cursor decodes can
   evict one. *)
let test_frontend_budget_holds_every_frame () =
  let p = Lazy.force prepared in
  let queries =
    List.init 12 (fun i ->
        let t r = Collections.Synth.core_term ~rank:r in
        Printf.sprintf "#sum( %s %s %s )" (t (i + 1)) (t ((3 * i) + 20)) (t ((7 * i) + 60)))
  in
  let pass fe =
    List.map
      (fun q -> fingerprint (Core.Frontend.run_query_string ~top_k:10 fe q).Core.Frontend.ranked)
      queries
  in
  (* The bytes one pass leaves as frames, under a budget nothing
     evicts from. *)
  let roomy = Core.Frontend.of_prepared p ~names:[ "a" ] ~block_cache_bytes:(1 lsl 26) in
  let golden = pass roomy in
  let needed = (frames roomy).Util.Cache_stats.resident_bytes in
  Alcotest.(check bool) "the pass reads segments" true (needed > 0);
  let fe = Core.Frontend.of_prepared p ~names:[ "a" ] ~block_cache_bytes:needed in
  let vfs = Core.Frontend.replica_vfs fe ~name:"a" in
  let first = pass fe in
  let c0 = Vfs.counters vfs in
  let second = pass fe in
  let c = Vfs.diff_counters ~later:(Vfs.counters vfs) ~earlier:c0 in
  Alcotest.(check int) "the second pass makes no file access" 0 c.Vfs.file_accesses;
  Alcotest.(check int) "no frame evicted" 0 (frames fe).Util.Cache_stats.evictions;
  Alcotest.(check bool) "rankings bit-identical" true (first = golden && second = golden)

(* A single replica on a device stalling 120 ms per I/O, and the query
   run once under a 100 ms deadline, which the stall blows. *)
let stalled_degraded_query () =
  let p = Lazy.force prepared in
  let fe =
    Core.Frontend.of_prepared p ~names:[ "solo" ] ~buffers:Core.Buffer_sizing.no_cache
      ~window:1000 ~trip_after:1000 ~result_cache_bytes:(1 lsl 16)
  in
  let vfs = Core.Frontend.replica_vfs fe ~name:"solo" in
  Vfs.set_fault vfs (Vfs.Fault.degraded_device ~file:p.Core.Experiment.mneme_file ~ms:120.0);
  Vfs.purge_os_cache vfs;
  let r1 = Core.Frontend.run_query_string ~top_k:15 ~deadline_ms:100.0 fe query in
  Alcotest.(check bool) "stall blew the deadline" true r1.Core.Frontend.deadline_hit;
  Alcotest.(check bool) "degraded" true r1.Core.Frontend.degraded;
  Vfs.clear_fault vfs;
  (fe, r1)

(* A degraded ranking is partial: it is never cached, so it is never
   served as a full answer, takes no room from a servable one, and its
   rerun is a plain miss. *)
let test_degraded_ranking_not_cached () =
  let fe, _ = stalled_degraded_query () in
  Alcotest.(check int) "nothing resident after the degraded query" 0
    (result_tier fe).Util.Cache_stats.resident_entries;
  let r2 = Core.Frontend.run_query_string ~top_k:15 fe query in
  Alcotest.(check bool) "the rerun is recomputed" false r2.Core.Frontend.cached;
  let s = result_tier fe in
  Alcotest.(check int) "two probes" 2 s.Util.Cache_stats.refs;
  Alcotest.(check int) "the rerun counts no hit" 0 s.Util.Cache_stats.hits;
  Alcotest.(check int) "the healthy answer is resident" 1 s.Util.Cache_stats.resident_entries

(* Satellite regression: a stalled replica blowing the deadline yields a
   degraded partial — it must not be replayed as a full answer, and the
   healthy recomputation must cache. *)
let test_stalled_deadline_result_never_cached () =
  let fe, r1 = stalled_degraded_query () in
  (* Device healed: the same query must be recomputed, not replayed. *)
  let r2 = Core.Frontend.run_query_string ~top_k:15 fe query in
  Alcotest.(check bool) "degraded partial was not served" false r2.Core.Frontend.cached;
  Alcotest.(check bool) "healthy run is complete" false r2.Core.Frontend.degraded;
  Alcotest.(check bool) "full answer has every term's evidence" true
    (List.length r2.Core.Frontend.ranked >= List.length r1.Core.Frontend.ranked);
  (* The healthy full answer now caches. *)
  let r3 = Core.Frontend.run_query_string ~top_k:15 fe query in
  Alcotest.(check bool) "full answer cached" true r3.Core.Frontend.cached;
  Alcotest.(check bool) "replays the healthy ranking" true
    (fingerprint r3.Core.Frontend.ranked = fingerprint r2.Core.Frontend.ranked)

(* --- churn coherence ----------------------------------------------- *)

let test_torture_cache () =
  Alcotest.(check (list (pair int string)))
    "no coherence problems" [] (Core.Torture.cache ()).Core.Torture.problems

(* Satellite property: under random add/delete interleavings, across
   the lex/stem presets, the cached read path equals the uncached one
   at every published epoch, and collection leaves no cache entry
   tagged with a collected epoch.  Every document opens with "alpha",
   and repeats each occurrence of an even-indexed word ten times, so
   those records outgrow 12 bytes and are objects read through the
   frames in every instance, while the others ride inline in the
   root. *)
let vocab = [| "alpha"; "beta"; "gamma"; "delta"; "the"; "of"; "retrieval"; "stores" |]

let churn_text words =
  String.concat " "
    (List.concat_map
       (fun w -> List.init (if w mod 2 = 0 then 10 else 1) (fun _ -> vocab.(w)))
       (0 :: words))

let gen_churn =
  QCheck.Gen.(
    pair (int_range 0 3)
      (list_size (int_range 2 10) (list_size (int_range 1 8) (int_range 0 7))))

let prop_churn_coherence =
  QCheck.Test.make ~name:"cached = uncached at every epoch under churn" ~count:25
    (QCheck.make gen_churn) (fun (preset, docs) ->
      let stem = preset land 1 = 1 in
      let stopwords = if preset land 2 = 2 then Some Inquery.Stopwords.default else None in
      let vfs = Vfs.create () in
      (* Journaled, so every publication flushes its segments; transient
         buffers, so a segment read twice comes from its frame. *)
      let live =
        Core.Live_index.create_mneme ?stopwords ~stem ~buffers:Core.Buffer_sizing.no_cache
          ~journal:"churn.log" vfs ~file:"churn.mneme" ()
      in
      let store = Option.get (Core.Live_index.mneme_store live) in
      let rc = Core.Result_cache.create ~capacity_bytes:(1 lsl 20) in
      let bc = Util.Block_cache.create ~capacity_bytes:(1 lsl 20) in
      Mneme.Store.set_frames store (Some bc);
      Core.Live_index.on_publish live (fun ~epoch ->
          ignore (Core.Result_cache.retain rc ~keep:(fun e -> e = epoch));
          ignore (Util.Block_cache.retain bc ~keep:(fun e -> e = epoch)));
      let queries = [ "alpha"; "#sum( retrieval the gamma )" ] in
      let ok = ref true in
      (* Every vocabulary word's record at the current epoch, read twice
         through the frames — the first read may fill one, the second
         finds it resident — and once with frames detached, from the
         device: all three must be the same bytes. *)
      let read_records () =
        Array.iter
          (fun word ->
            match Core.Live_index.normalise_term live word with
            | None -> ()
            | Some term ->
              let record () =
                Core.Live_index.record (Core.Live_index.latest live) term
              in
              let first = record () in
              let second = record () in
              Mneme.Store.set_frames store None;
              let plain = record () in
              Mneme.Store.set_frames store (Some bc);
              if not (Option.equal Bytes.equal first plain && Option.equal Bytes.equal second plain)
              then ok := false)
          vocab
      in
      let check_epoch () =
        let epoch = Core.Live_index.epoch live in
        read_records ();
        List.iter
          (fun q ->
            let golden = fingerprint (Core.Live_index.search ~top_k:5 live q) in
            (match Core.Result_cache.find rc ~key:q ~epoch with
            | Some cached -> if cached <> golden then ok := false
            | None ->
              Core.Result_cache.insert rc ~key:q ~epoch ~cost:64 golden);
            (* Re-probe: the entry just filled (or verified) must hit
               and still match. *)
            match Core.Result_cache.find rc ~key:q ~epoch with
            | Some cached -> if cached <> golden then ok := false
            | None -> ok := false)
          queries
      in
      let ids = ref [] in
      List.iteri
        (fun i words ->
          let id = Core.Live_index.add_document live (churn_text words) in
          ids := id :: !ids;
          check_epoch ();
          if i mod 3 = 2 then begin
            (match !ids with
            | _ :: older :: _ -> ignore (Core.Live_index.delete_document live older)
            | _ -> ());
            check_epoch ()
          end)
        docs;
      ignore (Core.Live_index.gc live);
      let final = Core.Live_index.epoch live in
      List.iter (fun e -> if e <> final then ok := false) (Core.Result_cache.epochs rc);
      List.iter (fun e -> if e <> final then ok := false) (Util.Block_cache.epochs bc);
      if (Util.Block_cache.stats bc).Util.Cache_stats.hits = 0 then ok := false;
      !ok)

let suite =
  [
    Alcotest.test_case "block cache: retain by epoch" `Quick test_block_cache_retain;
    Alcotest.test_case "block cache: frame probe, fill, key separation" `Quick test_frame_basics;
    Alcotest.test_case "result cache: epoch mismatch purges" `Quick test_result_cache_epoch_purge;
    Alcotest.test_case "result cache: partial never served as full" `Quick
      test_degraded_ranking_not_cached;
    Alcotest.test_case "cache stats merge across tiers" `Quick test_cache_stats_merge;
    Alcotest.test_case "frontend: result-cache hit replays bit-identically" `Quick
      test_frontend_result_cache;
    Alcotest.test_case "frontend: cached records skip the store on reuse" `Quick
      test_frontend_frames;
    Alcotest.test_case "frontend: a budget of every frame serves a pass again" `Quick
      test_frontend_budget_holds_every_frame;
    Alcotest.test_case "frontend: stalled deadline result never cached" `Quick
      test_stalled_deadline_result_never_cached;
    Alcotest.test_case "torture: coherence under churn" `Slow test_torture_cache;
    QCheck_alcotest.to_alcotest prop_churn_coherence;
  ]
