(* The persistent system catalog. *)

let build_indexer () =
  let ix = Inquery.Indexer.create () in
  Inquery.Indexer.add_document ix ~doc_id:0 "alpha beta gamma";
  Inquery.Indexer.add_document ix ~doc_id:1 "beta delta";
  let dict = Inquery.Indexer.dictionary ix in
  (match Inquery.Dictionary.find dict "beta" with
  | Some e -> e.Inquery.Dictionary.locator <- 4242
  | None -> ());
  ix

let test_of_indexer () =
  let c = Core.Catalog.of_indexer (build_indexer ()) in
  Alcotest.(check int) "docs" 2 c.Core.Catalog.n_docs;
  Alcotest.(check (array int)) "lengths" [| 3; 2 |] c.Core.Catalog.doc_lens;
  Alcotest.(check (float 1e-9)) "avg" 2.5 (Core.Catalog.avg_doc_length c);
  Alcotest.(check int) "doc length" 3 (Core.Catalog.doc_len c 0);
  Alcotest.(check int) "out of range" 0 (Core.Catalog.doc_len c 9);
  Alcotest.(check int) "negative id" 0 (Core.Catalog.doc_len c (-1))

let test_save_load_roundtrip () =
  let vfs = Vfs.create () in
  let c = Core.Catalog.of_indexer (build_indexer ()) in
  Core.Catalog.save vfs ~file:"x.catalog" c;
  let c' = Core.Catalog.load vfs ~file:"x.catalog" in
  Alcotest.(check int) "docs" c.Core.Catalog.n_docs c'.Core.Catalog.n_docs;
  Alcotest.(check (array int)) "lengths" c.Core.Catalog.doc_lens c'.Core.Catalog.doc_lens;
  Alcotest.(check int) "bytes" c.Core.Catalog.collection_bytes c'.Core.Catalog.collection_bytes;
  Alcotest.(check int) "dict size" (Inquery.Dictionary.size c.Core.Catalog.dict)
    (Inquery.Dictionary.size c'.Core.Catalog.dict);
  (* Locators (Mneme ids) survive, with ids and stats. *)
  match Inquery.Dictionary.find c'.Core.Catalog.dict "beta" with
  | Some e ->
    Alcotest.(check int) "locator" 4242 e.Inquery.Dictionary.locator;
    Alcotest.(check int) "df" 2 e.Inquery.Dictionary.df
  | None -> Alcotest.fail "beta lost"

let test_save_overwrites () =
  let vfs = Vfs.create () in
  let c = Core.Catalog.of_indexer (build_indexer ()) in
  Core.Catalog.save vfs ~file:"x.catalog" c;
  Core.Catalog.save vfs ~file:"x.catalog" c;
  let c' = Core.Catalog.load vfs ~file:"x.catalog" in
  Alcotest.(check int) "still loads" 2 c'.Core.Catalog.n_docs

let test_load_errors () =
  let vfs = Vfs.create () in
  Alcotest.(check bool) "missing" true
    (match Core.Catalog.load vfs ~file:"nope" with _ -> false | exception Failure _ -> true);
  let f = Vfs.open_file vfs "bad" in
  ignore (Vfs.append f (Bytes.make 32 'Q'));
  Alcotest.(check bool) "bad magic" true
    (match Core.Catalog.load vfs ~file:"bad" with _ -> false | exception Failure _ -> true)

let test_prepared_catalog_consistency () =
  let model =
    Collections.Docmodel.make ~name:"cat" ~n_docs:120 ~core_vocab:300 ~mean_doc_len:25.0 ~seed:9 ()
  in
  let p = Core.Experiment.prepare model in
  let c = Core.Catalog.load p.Core.Experiment.vfs ~file:p.Core.Experiment.catalog_file in
  Alcotest.(check int) "doc count" 120 c.Core.Catalog.n_docs;
  Alcotest.(check int) "dict size matches" (Inquery.Dictionary.size p.Core.Experiment.dict)
    (Inquery.Dictionary.size c.Core.Catalog.dict);
  (* Locators in the catalog resolve in the Mneme store. *)
  let store = Mneme.Store.open_existing p.Core.Experiment.vfs p.Core.Experiment.mneme_file in
  List.iter
    (fun name ->
      Mneme.Store.attach_buffer (Mneme.Store.pool store name)
        (Mneme.Buffer_pool.create ~name ~capacity:100_000 ()))
    [ "small"; "medium"; "large" ];
  Inquery.Dictionary.iter c.Core.Catalog.dict (fun e ->
      if e.Inquery.Dictionary.locator >= 0 then
        if Mneme.Store.get_opt store e.Inquery.Dictionary.locator = None then
          Alcotest.fail ("dangling locator for " ^ e.Inquery.Dictionary.term))

let records_table ix =
  let tbl = Hashtbl.create 64 in
  Seq.iter (fun (id, b) -> Hashtbl.replace tbl id b) (Inquery.Indexer.to_records ix);
  tbl

let test_verify_records_clean () =
  let ix = build_indexer () in
  let c = Core.Catalog.of_indexer ix in
  let tbl = records_table ix in
  let fetch (e : Inquery.Dictionary.entry) = Hashtbl.find_opt tbl e.Inquery.Dictionary.id in
  Alcotest.(check (list (pair string string))) "clean" []
    (Core.Catalog.verify_records c ~fetch)

let test_verify_records_detects () =
  let ix = build_indexer () in
  let c = Core.Catalog.of_indexer ix in
  let n_terms = Inquery.Dictionary.size c.Core.Catalog.dict in
  (* Every record replaced by one with the wrong df and cf: every term
     flagged on both counts. *)
  let wrong = Inquery.Postings.encode [ (0, [ 0 ]); (1, [ 1 ]); (2, [ 2 ]); (3, [ 3 ]) ] in
  let problems = Core.Catalog.verify_records c ~fetch:(fun _ -> Some wrong) in
  Alcotest.(check int) "df/cf mismatches flagged" (2 * n_terms) (List.length problems);
  (* A store-level exception becomes a problem, never propagates. *)
  let problems =
    Core.Catalog.verify_records c ~fetch:(fun _ -> raise (Mneme.Store.Corrupt "bits rotted"))
  in
  Alcotest.(check int) "corrupt fetches flagged" n_terms (List.length problems);
  (* df > 0 with no stored record is flagged too. *)
  let problems = Core.Catalog.verify_records c ~fetch:(fun _ -> None) in
  Alcotest.(check int) "missing records flagged" n_terms (List.length problems)

let suite =
  [
    Alcotest.test_case "of_indexer" `Quick test_of_indexer;
    Alcotest.test_case "verify_records clean" `Quick test_verify_records_clean;
    Alcotest.test_case "verify_records detects damage" `Quick test_verify_records_detects;
    Alcotest.test_case "save/load roundtrip" `Quick test_save_load_roundtrip;
    Alcotest.test_case "save overwrites" `Quick test_save_overwrites;
    Alcotest.test_case "load errors" `Quick test_load_errors;
    Alcotest.test_case "prepared catalog consistency" `Quick test_prepared_catalog_consistency;
  ]
