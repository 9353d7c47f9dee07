(* The two index backends agree on every record and expose the
   interface contracts the engine depends on. *)

let tiny_model =
  Collections.Docmodel.make ~name:"bk" ~n_docs:300 ~core_vocab:800 ~mean_doc_len:60.0
    ~hapax_prob:0.02 ~seed:17 ()

let build () =
  let vfs = Vfs.create () in
  let ix = Collections.Synth.build_index tiny_model in
  let dict = Inquery.Indexer.dictionary ix in
  let tree = Core.Btree_backend.build vfs ~file:"x.btree" (Inquery.Indexer.to_records ix) in
  Btree.flush tree;
  ignore
    (Core.Mneme_backend.build vfs ~file:"x.mneme" ~dict (Inquery.Indexer.to_records ix));
  (vfs, ix, dict)

let default_buffers = Core.Buffer_sizing.compute ~largest_record:50_000 ()

let test_backends_agree () =
  let vfs, ix, dict = build () in
  let bt = Core.Btree_backend.open_session vfs ~file:"x.btree" in
  let mn = Core.Mneme_backend.open_session vfs ~file:"x.mneme" ~buffers:default_buffers in
  Inquery.Dictionary.iter dict (fun entry ->
      let a = bt.Core.Index_store.fetch entry in
      let b = mn.Core.Index_store.fetch entry in
      match (a, b) with
      | Some ra, Some rb ->
        if not (Bytes.equal ra rb) then
          Alcotest.fail ("records differ for " ^ entry.Inquery.Dictionary.term)
      | _ -> Alcotest.fail ("record missing for " ^ entry.Inquery.Dictionary.term));
  Alcotest.(check bool) "every term checked" true (Inquery.Indexer.term_count ix > 0)

let test_names () =
  let vfs, _, _ = build () in
  let bt = Core.Btree_backend.open_session vfs ~file:"x.btree" in
  Alcotest.(check string) "btree" "btree" bt.Core.Index_store.name;
  let mn = Core.Mneme_backend.open_session vfs ~file:"x.mneme" ~buffers:default_buffers in
  Alcotest.(check string) "cache" "mneme-cache" mn.Core.Index_store.name;
  let mn0 =
    Core.Mneme_backend.open_session vfs ~file:"x.mneme" ~buffers:Core.Buffer_sizing.no_cache
  in
  Alcotest.(check string) "nocache" "mneme-nocache" mn0.Core.Index_store.name

let test_locators_stored_in_dictionary () =
  let _, _, dict = build () in
  (* The integration point: every term's Mneme object id lives in the
     hash dictionary entry. *)
  Inquery.Dictionary.iter dict (fun entry ->
      if entry.Inquery.Dictionary.locator < 0 then
        Alcotest.fail ("no locator for " ^ entry.Inquery.Dictionary.term))

let test_buffer_stats_exposed () =
  let vfs, _, dict = build () in
  let mn = Core.Mneme_backend.open_session vfs ~file:"x.mneme" ~buffers:default_buffers in
  let entry = Option.get (Inquery.Dictionary.find_by_id dict 0) in
  ignore (mn.Core.Index_store.fetch entry);
  let stats = mn.Core.Index_store.buffer_stats () in
  Alcotest.(check (list string)) "three pools" [ "small"; "medium"; "large" ]
    (List.map fst stats);
  let total_refs =
    List.fold_left (fun acc (_, s) -> acc + s.Util.Cache_stats.refs) 0 stats
  in
  Alcotest.(check int) "one ref" 1 total_refs;
  mn.Core.Index_store.reset_buffer_stats ();
  let total_refs' =
    List.fold_left
      (fun acc (_, s) -> acc + s.Util.Cache_stats.refs)
      0
      (mn.Core.Index_store.buffer_stats ())
  in
  Alcotest.(check int) "reset" 0 total_refs'

let test_btree_has_no_buffers () =
  let vfs, _, _ = build () in
  let bt = Core.Btree_backend.open_session vfs ~file:"x.btree" in
  Alcotest.(check int) "no buffers" 0 (List.length (bt.Core.Index_store.buffer_stats ()));
  (* reserve is a no-op that still returns a working release thunk *)
  let release = bt.Core.Index_store.reserve [] in
  release ()

let test_reservation_on_mneme () =
  let vfs, _, dict = build () in
  let mn = Core.Mneme_backend.open_session vfs ~file:"x.mneme" ~buffers:default_buffers in
  let entry = Option.get (Inquery.Dictionary.find_by_id dict 0) in
  ignore (mn.Core.Index_store.fetch entry);
  let release = mn.Core.Index_store.reserve [ entry ] in
  release ();
  (* Double release must be harmless. *)
  release ()

let test_file_sizes () =
  let vfs, _, _ = build () in
  let bt = Core.Btree_backend.open_session vfs ~file:"x.btree" in
  let mn = Core.Mneme_backend.open_session vfs ~file:"x.mneme" ~buffers:default_buffers in
  Alcotest.(check bool) "btree file" true (bt.Core.Index_store.file_size () > 0);
  Alcotest.(check bool) "mneme file" true (mn.Core.Index_store.file_size () > 0)

let test_fetch_unset_locator () =
  let vfs, _, _ = build () in
  let mn = Core.Mneme_backend.open_session vfs ~file:"x.mneme" ~buffers:default_buffers in
  let d = Inquery.Dictionary.create () in
  let orphan = Inquery.Dictionary.intern d "orphan" in
  Alcotest.(check bool) "no locator -> None" true (mn.Core.Index_store.fetch orphan = None)

let test_replacement_policy_option () =
  let vfs, _, dict = build () in
  let mn =
    Core.Mneme_backend.open_session ~policy:Mneme.Buffer_pool.Fifo vfs ~file:"x.mneme"
      ~buffers:default_buffers
  in
  let entry = Option.get (Inquery.Dictionary.find_by_id dict 0) in
  ignore (mn.Core.Index_store.fetch entry);
  List.iter
    (fun (_, _s) -> ())
    (mn.Core.Index_store.buffer_stats ())

let suite =
  [
    Alcotest.test_case "backends agree" `Quick test_backends_agree;
    Alcotest.test_case "names" `Quick test_names;
    Alcotest.test_case "locators in dictionary" `Quick test_locators_stored_in_dictionary;
    Alcotest.test_case "buffer stats exposed" `Quick test_buffer_stats_exposed;
    Alcotest.test_case "btree has no buffers" `Quick test_btree_has_no_buffers;
    Alcotest.test_case "reservation on mneme" `Quick test_reservation_on_mneme;
    Alcotest.test_case "file sizes" `Quick test_file_sizes;
    Alcotest.test_case "fetch unset locator" `Quick test_fetch_unset_locator;
    Alcotest.test_case "replacement policy option" `Quick test_replacement_policy_option;
  ]
