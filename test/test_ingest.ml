(* Crash-safe online ingestion: the memory buffer unioned with the
   disk index must rank bit-identically to a from-scratch twin at every
   step, acknowledgements must survive a crash at every physical I/O
   exactly once, the budgeted merge must resume idempotently, and
   backpressure must shed load while the merge is behind and clear once
   it drains. *)

let fingerprint ranked =
  List.map
    (fun r -> (r.Inquery.Ranking.doc, Printf.sprintf "%.9f" r.Inquery.Ranking.score))
    ranked

let queries =
  let t r = Collections.Synth.core_term ~rank:r in
  [ t 1; Printf.sprintf "#sum( %s %s %s )" (t 1) (t 2) (t 3) ]

let small_config =
  { Core.Ingest.buffer_budget = 1 lsl 20; seal_bytes = 512; tier_fanout = 2 }

let model ?(n_docs = 30) ?(seed = 11) () =
  Collections.Docmodel.make ~name:"ingest-test" ~n_docs ~core_vocab:120 ~mean_doc_len:25.0
    ~hapax_prob:0.05 ~seed ()

let docs_of m = Array.of_seq (Collections.Synth.documents m)

let union_fp t = List.map (fun q -> fingerprint (Core.Ingest.search ~top_k:10 t q)) queries
let twin_fp tw = List.map (fun q -> fingerprint (Core.Live_index.search ~top_k:10 tw q)) queries

let add_acked t text =
  match Core.Ingest.add_document t text with
  | Core.Ingest.Acked { doc; _ } -> doc
  | Core.Ingest.Overloaded -> Alcotest.fail "unexpected backpressure"

(* --- the union oracle ---------------------------------------------- *)

let test_union_matches_twin () =
  let vfs = Vfs.create () in
  let t = Core.Ingest.create ~config:small_config vfs ~file:"u.mneme" () in
  let twin = Core.Live_index.create_btree (Vfs.create ()) ~file:"u.btree" () in
  let budget = Mneme.Budget.create ~max_bytes:1024 () in
  let docs = docs_of (model ()) in
  Array.iteri
    (fun d doc ->
      let text = Collections.Synth.document_text doc in
      let id = add_acked t text in
      ignore (Core.Live_index.add_document twin ~doc_id:id text);
      if d mod 3 = 2 then begin
        let a = Core.Ingest.delete_document t (id - 2) in
        let b = Core.Live_index.delete_document twin (id - 2) in
        Alcotest.(check bool) "delete existence agrees" b a
      end;
      if d mod 4 = 3 then ignore (Core.Ingest.merge_step ~budget t);
      (* After every operation the union ranks exactly like a
         from-scratch index of the same surviving documents. *)
      Alcotest.(check bool)
        (Printf.sprintf "rankings agree after op %d" d)
        true
        (union_fp t = twin_fp twin))
    docs;
  let s = Core.Ingest.stats t in
  Alcotest.(check bool) "some documents stayed buffered" true (Core.Ingest.buffered_docs t > 0);
  Alcotest.(check bool) "merge folded under budget" true (s.Core.Ingest.folds > 0);
  Core.Ingest.drain t;
  Alcotest.(check bool) "rankings agree after the drain" true (union_fp t = twin_fp twin);
  Alcotest.(check (list (pair int int)))
    "document tables agree" (Core.Live_index.doc_lengths twin) (Core.Ingest.documents t);
  Alcotest.(check int) "buffer empty after the drain" 0 (Core.Ingest.buffered_docs t);
  Alcotest.(check (list (pair string string))) "audit clean" [] (Core.Ingest.audit t);
  ignore (Core.Live_index.gc (Core.Ingest.live t));
  Alcotest.(check int) "nothing stranded after gc" 0
    (Core.Live_index.stranded_bytes (Core.Ingest.live t));
  let store = Option.get (Core.Live_index.mneme_store (Core.Ingest.live t)) in
  let rep = Mneme.Check.run ~object_check:Inquery.Postings.validate store in
  Alcotest.(check bool)
    (Format.asprintf "%a" Mneme.Check.pp_report rep)
    true (Mneme.Check.ok rep)

(* --- crash-point enumeration (the tentpole audit) ------------------ *)

(* Nine documents: at eight, inline chunks leave the workload 30
   physical I/Os, and the sweep is to cover more than 30 crash points. *)
let test_every_ingest_point_recovers_exactly_once () =
  let r = Core.Torture.(sweep (prepare (ingest ~seed:42 ~docs:9 ()))) in
  let count name = List.assoc name r.Core.Torture.counts in
  Alcotest.(check bool) "workload performs I/O" true (r.Core.Torture.points > 30);
  Alcotest.(check (list (pair int string)))
    "no invariant violations" [] r.Core.Torture.problems;
  Alcotest.(check bool) "every crash image opens" true (count "unopenable" = 0);
  (* Crashes before a fold's commit record seals leave the old root ... *)
  Alcotest.(check bool) "some roots wholly old" true (count "wholly_old" > 0);
  (* ... crashes after it leave the new one — never a mix. *)
  Alcotest.(check bool) "some roots wholly new" true (count "wholly_new" > 0);
  Alcotest.(check bool) "merge folded repeatedly" true (count "folds" > 1);
  Alcotest.(check bool) "recovery redelivered WAL records" true (count "redelivered" > 0)

let prop_random_ingest_crash_point =
  Test_torture.prop_random_crash_point
    ~name:"random ingest workload, random crash point recovers exactly once" ~count:30
    ~seeds:3 (fun seed -> Core.Torture.ingest ~seed ~docs:5 ())

(* --- WAL recovery without any fold --------------------------------- *)

let test_wal_replay_recovers_unmerged_buffer () =
  let vfs = Vfs.create () in
  let t = Core.Ingest.create ~config:small_config vfs ~file:"w.mneme" () in
  let docs = docs_of (model ~n_docs:10 ~seed:3 ()) in
  Array.iter (fun doc -> ignore (add_acked t (Collections.Synth.document_text doc))) docs;
  ignore (Core.Ingest.delete_document t 1);
  ignore (Core.Ingest.delete_document t 4);
  let golden = union_fp t in
  let table = Core.Ingest.documents t in
  let seq = Core.Ingest.last_seq t in
  (* Power cut: only fsynced bytes survive.  No fold ever ran, so the
     entire state must come back from the WAL alone. *)
  let img = Vfs.crash_image vfs in
  let t' = Core.Ingest.open_ ~config:small_config img ~file:"w.mneme" () in
  Alcotest.(check int) "every acknowledged operation recovered" seq (Core.Ingest.last_seq t');
  Alcotest.(check int) "all twelve records replayed" 12
    (Core.Ingest.stats t').Core.Ingest.replayed_ops;
  Alcotest.(check (list (pair int int)))
    "every acknowledged document present exactly once" table (Core.Ingest.documents t');
  Alcotest.(check bool) "rankings survive the crash" true (union_fp t' = golden);
  Alcotest.(check (list (pair string string))) "audit clean" [] (Core.Ingest.audit t');
  Core.Ingest.drain t';
  Alcotest.(check bool) "rankings survive the drain" true (union_fp t' = golden);
  Alcotest.(check int) "frontier reaches the last acknowledgement" seq
    (Core.Ingest.merged_seq t')

(* --- the folded index stays resident ------------------------------- *)

(* The live index sizes its pools to the segments its published epoch
   names, so once a fold's records have been read they stay: the same
   search again reads no byte.  The query names every core term, so its
   records span far more than a fixed pool of tens of KB would keep. *)
let test_repeated_search_reads_nothing () =
  let vfs = Vfs.create () in
  let t = Core.Ingest.create vfs ~file:"rs.mneme" () in
  let m =
    Collections.Docmodel.make ~name:"resident" ~n_docs:400 ~core_vocab:400 ~mean_doc_len:80.0
      ~seed:5 ()
  in
  Array.iter (fun doc -> ignore (add_acked t (Collections.Synth.document_text doc))) (docs_of m);
  Core.Ingest.drain t;
  let q =
    Printf.sprintf "#sum( %s )"
      (String.concat " " (List.init 400 (fun r -> Collections.Synth.core_term ~rank:(r + 1))))
  in
  let first = fingerprint (Core.Ingest.search ~top_k:10 t q) in
  let before = Vfs.counters vfs in
  let again = fingerprint (Core.Ingest.search ~top_k:10 t q) in
  let io = Vfs.diff_counters ~later:(Vfs.counters vfs) ~earlier:before in
  Alcotest.(check int) "no byte read" 0 io.Vfs.bytes_read;
  Alcotest.(check bool) "same ranking" true (first = again)

(* Each publication sizes the pools to the segments its directory
   names and drops every other resident segment a reader has not
   pinned, so a warm working set stays whole: a fold that consolidates
   chunks (every fifth, per term) finds them resident.  Before each fold
   the whole directory is read, and one pool's resident segments are
   pinned, in turn; the fold must read no byte, evict no pinned segment
   and leave nothing else outside the new working set. *)
let test_folds_read_nothing_they_did_not_write () =
  let vfs = Vfs.create () in
  let t = Core.Ingest.create vfs ~file:"fr.mneme" () in
  let live = Core.Ingest.live t in
  let store = Option.get (Core.Live_index.mneme_store live) in
  let buffers =
    List.map
      (fun pool -> (pool, Option.get (Mneme.Store.buffer pool)))
      (Mneme.Store.pools store)
  in
  let docs = docs_of (model ~n_docs:240 ~seed:7 ()) in
  let folds = (2 * Core.Live_index.max_chunks) + 1 in
  let per_fold = Array.length docs / folds in
  let pinned_left = ref 0 in
  for f = 0 to folds - 1 do
    for d = f * per_fold to ((f + 1) * per_fold) - 1 do
      ignore (add_acked t (Collections.Synth.document_text docs.(d)))
    done;
    let view = Core.Live_index.latest live in
    List.iter
      (fun (term, _, _) -> ignore (Core.Live_index.record view term))
      (Core.Live_index.directory live);
    let pool, buffer = List.nth buffers (f mod List.length buffers) in
    let pinned = Mneme.Buffer_pool.resident_segments buffer in
    List.iter (fun pseg -> ignore (Mneme.Buffer_pool.pin buffer ~pseg)) pinned;
    let before = Vfs.counters vfs in
    Alcotest.(check bool) "a fold ran" true (Core.Ingest.merge_step t);
    let io = Vfs.diff_counters ~later:(Vfs.counters vfs) ~earlier:before in
    Alcotest.(check int) (Printf.sprintf "fold %d reads no byte" (f + 1)) 0 io.Vfs.bytes_read;
    let working = Hashtbl.create 256 in
    List.iter
      (fun (_, chain) ->
        List.iter
          (function
            | Core.Live_index.Object oid -> (
              match Mneme.Store.segment_of store oid with
              | Some (p, pseg, _) -> Hashtbl.replace working (Mneme.Store.pool_name p, pseg) ()
              | None -> ())
            | Core.Live_index.Inline _ -> ())
          chain)
      (Core.Live_index.chains live);
    List.iter
      (fun pseg ->
        Alcotest.(check bool) "a pinned segment stays resident" true
          (Mneme.Buffer_pool.resident buffer ~pseg);
        if not (Hashtbl.mem working (Mneme.Store.pool_name pool, pseg)) then incr pinned_left)
      pinned;
    List.iter
      (fun (p, b) ->
        List.iter
          (fun pseg ->
            if not (List.mem pseg pinned && p == pool) then
              Alcotest.(check bool)
                (Printf.sprintf "fold %d keeps only the working set resident" (f + 1))
                true
                (Hashtbl.mem working (Mneme.Store.pool_name p, pseg)))
          (Mneme.Buffer_pool.resident_segments b))
      buffers;
    List.iter (fun pseg -> Mneme.Buffer_pool.unpin buffer ~pseg) pinned
  done;
  Alcotest.(check bool) "some pinned segment left the working set" true (!pinned_left > 0);
  Alcotest.(check bool) "some unpinned segment was dropped" true
    (List.exists
       (fun (_, b) -> (Mneme.Buffer_pool.stats b).Util.Cache_stats.invalidations > 0)
       buffers);
  Alcotest.(check (list (pair string string))) "audit" [] (Core.Ingest.audit t)

(* --- merge-resume idempotency -------------------------------------- *)

let test_merge_resume_byte_identical () =
  let budget = Mneme.Budget.create ~max_segments:1 () in
  let docs = docs_of (model ~n_docs:40 ~seed:5 ()) in
  let apply t =
    Array.iteri
      (fun d doc ->
        let id = add_acked t (Collections.Synth.document_text doc) in
        if d mod 3 = 2 then ignore (Core.Ingest.delete_document t (id - 2)))
      docs
  in
  let disk_image t =
    let live = Core.Ingest.live t in
    let view = Core.Live_index.latest live in
    let records =
      List.map
        (fun (term, _, _) -> (term, Option.get (Core.Live_index.record view term)))
        (Core.Live_index.directory live)
    in
    (records, Core.Live_index.doc_lengths live, Core.Ingest.merged_seq t)
  in
  (* Golden: one uninterrupted budgeted drain. *)
  let golden_steps = ref 0 in
  let golden =
    let t = Core.Ingest.create ~config:small_config (Vfs.create ()) ~file:"m.mneme" () in
    apply t;
    while Core.Ingest.merge_step ~budget t do
      incr golden_steps
    done;
    disk_image t
  in
  Alcotest.(check bool) "drain takes several budget steps" true (!golden_steps > 2);
  (* Kill the merge between every pair of budget steps, reopen from the
     durable image, drain — the postings objects must come out
     byte-identical to the uninterrupted merge. *)
  for j = 0 to !golden_steps - 1 do
    let vfs = Vfs.create () in
    let t = Core.Ingest.create ~config:small_config vfs ~file:"m.mneme" () in
    apply t;
    for _ = 1 to j do
      ignore (Core.Ingest.merge_step ~budget t)
    done;
    let img = Vfs.crash_image vfs in
    let t' = Core.Ingest.open_ ~config:small_config img ~file:"m.mneme" () in
    Core.Ingest.drain t';
    Alcotest.(check bool)
      (Printf.sprintf "disk state after a kill at step %d matches the uninterrupted merge" j)
      true
      (disk_image t' = golden)
  done

(* --- backpressure under a stalled merge ---------------------------- *)

let test_backpressure_sheds_and_recovers () =
  let vfs = Vfs.create () in
  let config = { Core.Ingest.buffer_budget = 2048; seal_bytes = 256; tier_fanout = 2 } in
  let t = Core.Ingest.create ~config vfs ~file:"bp.mneme" () in
  (* The merge is stalled on a degraded device: every I/O touching the
     store charges extra simulated disk time, so the buffer fills while
     the merge is behind. *)
  Vfs.set_fault vfs (Vfs.Fault.degraded_device ~file:"bp.mneme" ~ms:5.0);
  let docs = docs_of (model ~n_docs:60 ~seed:9 ()) in
  let accepted = ref 0 and shed = ref 0 and i = ref 0 in
  while !shed = 0 && !i < Array.length docs do
    (match Core.Ingest.add_document t (Collections.Synth.document_text docs.(!i)) with
    | Core.Ingest.Acked _ -> incr accepted
    | Core.Ingest.Overloaded -> incr shed);
    incr i
  done;
  Alcotest.(check bool) "past the byte budget the write path sheds load" true (!shed > 0);
  Alcotest.(check bool) "documents were accepted before the budget filled" true (!accepted > 0);
  Alcotest.(check int) "overloads counted" !shed (Core.Ingest.stats t).Core.Ingest.overloads;
  Alcotest.(check int) "a shed document was never assigned" !accepted
    (Core.Ingest.document_count t);
  (* The slow merge still drains — it just costs simulated disk time. *)
  let before = Vfs.Clock.wall_ms (Vfs.Clock.snapshot (Vfs.clock vfs)) in
  Core.Ingest.drain t;
  let after = Vfs.Clock.wall_ms (Vfs.Clock.snapshot (Vfs.clock vfs)) in
  Alcotest.(check bool) "draining through the degraded device cost disk time" true
    (after -. before > 0.0);
  Alcotest.(check int) "buffer empty after the drain" 0 (Core.Ingest.buffered_bytes t);
  (* Once the merge catches up, ingestion resumes. *)
  Vfs.set_fault vfs (Vfs.Fault.none ());
  (match Core.Ingest.add_document t (Collections.Synth.document_text docs.(!i)) with
  | Core.Ingest.Acked _ -> ()
  | Core.Ingest.Overloaded -> Alcotest.fail "ingestion did not resume after the drain");
  Alcotest.(check (list (pair string string))) "audit clean" [] (Core.Ingest.audit t)

(* --- tombstone-only drains ----------------------------------------- *)

let test_tombstone_only_drain_reaches_frontier () =
  let vfs = Vfs.create () in
  let t = Core.Ingest.create ~config:small_config vfs ~file:"to.mneme" () in
  let d0 = add_acked t "alpha beta gamma" in
  ignore (add_acked t "alpha delta epsilon");
  Core.Ingest.drain t;
  (* Both documents are on disk; a deletion now leaves the buffer empty
     except for the tombstone.  The merge must still fold it, advance
     the frontier past the deletion and cut the WAL. *)
  Alcotest.(check bool) "deletion acknowledged" true (Core.Ingest.delete_document t d0);
  Alcotest.(check bool) "frontier behind the deletion" true
    (Core.Ingest.merged_seq t < Core.Ingest.last_seq t);
  Core.Ingest.drain t;
  Alcotest.(check int) "frontier reaches the deletion" (Core.Ingest.last_seq t)
    (Core.Ingest.merged_seq t);
  Alcotest.(check bool) "document gone from the union" false (Core.Ingest.contains_document t d0);
  Alcotest.(check bool) "document gone from the disk index" false
    (Core.Live_index.contains_document (Core.Ingest.live t) d0);
  Alcotest.(check int) "WAL truncated" 0 (Vfs.size (Vfs.open_file vfs "to.mneme.wal"));
  Alcotest.(check (list (pair string string))) "audit clean" [] (Core.Ingest.audit t)

(* --- a malformed frontier is damage, not "never folded" ------------ *)

let test_malformed_frontier_is_corrupt () =
  let vfs = Vfs.create () in
  let config = { Core.Ingest.default_config with seal_bytes = 1 } in
  let t = Core.Ingest.create ~config vfs ~file:"mf.mneme" () in
  List.iter
    (fun text -> ignore (add_acked t text))
    [ "alpha beta"; "beta gamma"; "gamma delta" ];
  ignore (Core.Ingest.merge_step ~budget:(Mneme.Budget.create ~max_bytes:1 ()) t);
  Alcotest.(check int) "the fold's frontier" 0 (Core.Ingest.merged_seq t);
  let set_frontier v =
    Core.Live_index.fold_batch (Core.Ingest.live t)
      ~meta:[ ("ingest_seq", v) ]
      ~docs:[] ~postings:[] ~deletes:[] ()
  in
  (* Read as "never folded", any of these would replay the folded
     document on top of its disk copy. *)
  List.iter
    (fun v ->
      set_frontier v;
      Alcotest.(check bool)
        (Printf.sprintf "the audit flags ingest_seq %S" v)
        true
        (List.mem_assoc "frontier" (Core.Ingest.audit t));
      match Core.Ingest.open_ ~config (Vfs.crash_image vfs) ~file:"mf.mneme" () with
      | _ -> Alcotest.failf "ingest_seq %S opened" v
      | exception Mneme.Store.Corrupt _ -> ())
    [ "x"; "-1"; ""; "0x0"; " 0" ];
  set_frontier "0";
  let t' = Core.Ingest.open_ ~config (Vfs.crash_image vfs) ~file:"mf.mneme" () in
  Alcotest.(check int) "a well-formed frontier opens" 0 (Core.Ingest.merged_seq t');
  Alcotest.(check (list (pair int int)))
    "each acknowledged document once" (Core.Ingest.documents t) (Core.Ingest.documents t');
  Alcotest.(check (list (pair string string))) "audit clean" [] (Core.Ingest.audit t')

(* --- randomized interleavings on every preset ---------------------- *)

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

let prop_union_matches_twin_on_presets =
  QCheck.Test.make
    ~name:"random add/delete/merge/gc interleavings rank like the twin on every preset" ~count:24
    QCheck.(pair (int_range 0 3) (int_range 0 9999))
    (fun (pi, seed) ->
      let docs = preset_docs (List.nth preset_names pi) in
      let rng = Random.State.make [| seed |] in
      let t = Core.Ingest.create ~config:small_config (Vfs.create ()) ~file:"pp.mneme" () in
      let twin = Core.Live_index.create_btree (Vfs.create ()) ~file:"pp.btree" () in
      let budget = Mneme.Budget.create ~max_bytes:1024 () in
      let alive = ref [] in
      let ok = ref true in
      let check b = if not b then ok := false in
      (* Byte level: every term the twin holds has the twin's record in
         the union, whose header statistics are the twin's df and cf,
         and the collection statistics agree. *)
      let check_records () =
        let union = Core.Ingest.latest t and tw = Core.Live_index.latest twin in
        List.iter
          (fun (term, df, cf) ->
            let record = Core.Live_index.record union term in
            check (record = Core.Live_index.record tw term);
            check (Option.map Inquery.Postings.stats record = Some (df, cf)))
          (Core.Live_index.directory twin);
        check (union.n_docs = tw.n_docs && union.total_len = tw.total_len)
      in
      Array.iter
        (fun doc ->
          let text = Collections.Synth.document_text doc in
          (match Core.Ingest.add_document t text with
          | Core.Ingest.Acked { doc = id; _ } ->
            ignore (Core.Live_index.add_document twin ~doc_id:id text);
            alive := id :: !alive
          | Core.Ingest.Overloaded -> check false);
          (if Random.State.int rng 3 = 0 then
             let l = !alive in
             let victim = List.nth l (Random.State.int rng (List.length l)) in
             check
               (Core.Ingest.delete_document t victim
               = Core.Live_index.delete_document twin victim);
             alive := List.filter (fun d -> d <> victim) !alive);
          if Random.State.int rng 3 = 0 then ignore (Core.Ingest.merge_step ~budget t);
          if Random.State.int rng 4 = 0 then ignore (Core.Live_index.gc (Core.Ingest.live t));
          check_records ();
          check (union_fp t = twin_fp twin))
        docs;
      Core.Ingest.drain t;
      check_records ();
      check (union_fp t = twin_fp twin);
      ignore (Core.Live_index.gc (Core.Ingest.live t));
      check (Core.Live_index.stranded_bytes (Core.Ingest.live t) = 0);
      check (Core.Ingest.audit t = []);
      !ok)

(* --- the shared merge/scrub budget --------------------------------- *)

let test_budget_semantics () =
  Alcotest.(check bool) "zero segment budget refused" true
    (match Mneme.Budget.create ~max_segments:0 () with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "zero byte budget refused" true
    (match Mneme.Budget.create ~max_bytes:0 () with
    | _ -> false
    | exception Invalid_argument _ -> true);
  let b = Mneme.Budget.create ~max_segments:2 ~max_bytes:100 () in
  let m = Mneme.Budget.meter () in
  (* An empty meter is always within budget: the first item is admitted
     no matter its size, so progress is guaranteed. *)
  Alcotest.(check bool) "first item always admitted" true
    (Mneme.Budget.within (Mneme.Budget.create ~max_bytes:1 ()) m);
  Mneme.Budget.charge m ~segments:1 ~bytes:1000;
  Alcotest.(check bool) "over the byte budget" false (Mneme.Budget.within b m);
  Alcotest.(check int) "segments metered" 1 (Mneme.Budget.segments m);
  Alcotest.(check int) "bytes metered" 1000 (Mneme.Budget.bytes m);
  let m2 = Mneme.Budget.meter () in
  Mneme.Budget.charge m2 ~segments:1 ~bytes:10;
  Alcotest.(check bool) "within both budgets" true (Mneme.Budget.within b m2);
  Mneme.Budget.charge m2 ~segments:1 ~bytes:10;
  Alcotest.(check bool) "segment cap reached" false (Mneme.Budget.within b m2);
  Alcotest.(check bool) "unlimited never exhausts" true
    (Mneme.Budget.within Mneme.Budget.unlimited m)

let suite =
  [
    Alcotest.test_case "union rankings match a from-scratch twin" `Quick test_union_matches_twin;
    Alcotest.test_case "every ingest crash point recovers exactly once" `Quick
      test_every_ingest_point_recovers_exactly_once;
    QCheck_alcotest.to_alcotest prop_random_ingest_crash_point;
    Alcotest.test_case "WAL replay recovers an unmerged buffer" `Quick
      test_wal_replay_recovers_unmerged_buffer;
    Alcotest.test_case "merge resume is byte-identical" `Quick test_merge_resume_byte_identical;
    Alcotest.test_case "a repeated search after a fold reads nothing" `Quick
      test_repeated_search_reads_nothing;
    Alcotest.test_case "folds read nothing they did not write" `Quick
      test_folds_read_nothing_they_did_not_write;
    Alcotest.test_case "backpressure sheds load and recovers" `Quick
      test_backpressure_sheds_and_recovers;
    Alcotest.test_case "tombstone-only drain reaches the frontier" `Quick
      test_tombstone_only_drain_reaches_frontier;
    QCheck_alcotest.to_alcotest prop_union_matches_twin_on_presets;
    Alcotest.test_case "budget semantics" `Quick test_budget_semantics;
    Alcotest.test_case "a malformed root frontier is Corrupt" `Quick
      test_malformed_frontier_is_corrupt;
  ]
