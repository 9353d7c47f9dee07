(* Store integrity checking. *)

let build_store () =
  let vfs = Vfs.create () in
  let store = Mneme.Store.create vfs "chk.mneme" in
  let pools =
    List.map
      (fun policy ->
        let pool = Mneme.Store.add_pool store policy in
        Mneme.Store.attach_buffer pool
          (Mneme.Buffer_pool.create ~name:policy.Mneme.Policy.name ~capacity:500_000 ());
        pool)
      [ Mneme.Policy.small; Mneme.Policy.medium; Mneme.Policy.large ]
  in
  (vfs, store, pools)

let populate store pools =
  let small, medium, large =
    match pools with [ s; m; l ] -> (s, m, l) | _ -> assert false
  in
  let oids = ref [] in
  for i = 0 to 299 do
    let oid =
      if i mod 3 = 0 then Mneme.Store.allocate small (Bytes.make (i mod 12) 'x')
      else if i mod 3 = 1 then Mneme.Store.allocate medium (Bytes.make (100 + i) 'y')
      else Mneme.Store.allocate large (Bytes.make (5000 + i) 'z')
    in
    oids := oid :: !oids
  done;
  Mneme.Store.finalize store;
  List.rev !oids

let test_clean_store () =
  let _, store, pools = build_store () in
  ignore (populate store pools);
  let report = Mneme.Check.run store in
  Alcotest.(check bool)
    (Format.asprintf "%a" Mneme.Check.pp_report report)
    true (Mneme.Check.ok report);
  Alcotest.(check int) "objects" 300 report.Mneme.Check.objects_seen;
  Alcotest.(check int) "pools" 3 report.Mneme.Check.pools_seen;
  Alcotest.(check bool) "segments seen" true (report.Mneme.Check.psegs_seen > 10)

let test_clean_after_updates () =
  let _, store, pools = build_store () in
  let oids = populate store pools in
  List.iteri
    (fun i oid ->
      if i mod 7 = 0 then Mneme.Store.delete store oid
      else if i mod 3 = 2 && i mod 11 = 0 then
        (* grow a large object, forcing relocation *)
        Mneme.Store.modify store oid (Bytes.make 9000 'm'))
    oids;
  Mneme.Store.finalize store;
  let report = Mneme.Check.run store in
  Alcotest.(check bool)
    (Format.asprintf "%a" Mneme.Check.pp_report report)
    true (Mneme.Check.ok report)

let test_clean_after_reopen () =
  let vfs, store, pools = build_store () in
  ignore (populate store pools);
  let store2 = Mneme.Store.open_existing vfs "chk.mneme" in
  List.iter
    (fun name ->
      Mneme.Store.attach_buffer (Mneme.Store.pool store2 name)
        (Mneme.Buffer_pool.create ~name ~capacity:500_000 ()))
    [ "small"; "medium"; "large" ];
  Alcotest.(check bool) "clean" true (Mneme.Check.ok (Mneme.Check.run store2))

let test_detects_corrupted_directory () =
  let vfs, store, pools = build_store () in
  ignore (populate store pools);
  (* Smash a medium segment's directory count on disk. *)
  let medium = Mneme.Store.pool store "medium" in
  (match Mneme.Store.pool_segments medium with
  | (_, (off, _)) :: _ ->
    let f = Vfs.open_file vfs "chk.mneme" in
    Vfs.write f ~off (Bytes.of_string "\xff\xff")
  | [] -> Alcotest.fail "no medium segments");
  (* A fresh handle (no warm buffers) must notice. *)
  let store2 = Mneme.Store.open_existing vfs "chk.mneme" in
  List.iter
    (fun name ->
      Mneme.Store.attach_buffer (Mneme.Store.pool store2 name)
        (Mneme.Buffer_pool.create ~name ~capacity:500_000 ()))
    [ "small"; "medium"; "large" ];
  let report = Mneme.Check.run store2 in
  Alcotest.(check bool) "problems found" false (Mneme.Check.ok report)

let reopen vfs =
  let store = Mneme.Store.open_existing vfs "chk.mneme" in
  List.iter
    (fun name ->
      Mneme.Store.attach_buffer (Mneme.Store.pool store name)
        (Mneme.Buffer_pool.create ~name ~capacity:500_000 ()))
    [ "small"; "medium"; "large" ];
  store

let test_overlapping_directory_entries () =
  let vfs = Vfs.create () in
  let store = Mneme.Store.create vfs "chk.mneme" in
  let pool = Mneme.Store.add_pool store Mneme.Policy.medium in
  let buffer = Mneme.Buffer_pool.create ~name:"medium" ~capacity:500_000 () in
  Mneme.Store.attach_buffer pool buffer;
  for i = 0 to 19 do
    ignore (Mneme.Store.allocate pool (Bytes.make (100 + i) 'y'))
  done;
  Mneme.Store.finalize store;
  (* Find a packed segment holding at least two objects and stretch the
     lowest entry's recorded length over its neighbour — the classic
     overlapping-directory corruption.  The damage is planted in the
     resident copy so the directory parser (not the CRC pass) is what
     has to catch it. *)
  let f = Vfs.open_file vfs "chk.mneme" in
  let pseg, seg =
    let rec pick = function
      | [] -> Alcotest.fail "no medium segment with two objects"
      | (id, (off, len)) :: rest -> (
        match Mneme.Store.parse_packed_directory (Vfs.read f ~off ~len) with
        | entries when List.length entries >= 2 -> (id, Vfs.read f ~off ~len)
        | _ | (exception Mneme.Store.Corrupt _) -> pick rest)
    in
    pick (Mneme.Store.pool_segments pool)
  in
  let entries = Mneme.Store.parse_packed_directory seg in
  let indexed = List.mapi (fun i e -> (i, e)) entries in
  let sorted = List.sort (fun (_, (_, a, _)) (_, (_, b, _)) -> compare a b) indexed in
  let (i, (_, first_off, _)), (_, (_, second_off, _)) =
    match sorted with a :: b :: _ -> (a, b) | _ -> assert false
  in
  let patch = Buffer.create 4 in
  Util.Bin.buf_u32 patch (second_off - first_off + 1);
  Bytes.blit (Buffer.to_bytes patch) 0 seg (2 + (i * 12) + 8) 4;
  ignore (Mneme.Store.segment_raw pool pseg);
  Mneme.Buffer_pool.update buffer ~pseg seg;
  let report = Mneme.Check.run store in
  Alcotest.(check bool) "problems reported" false (Mneme.Check.ok report);
  Alcotest.(check bool) "overlap named" true
    (List.exists
       (fun p -> Str_find.contains p.Mneme.Check.what "overlaps")
       report.Mneme.Check.problems)

let test_truncated_final_segment () =
  let vfs, store, pools = build_store () in
  ignore (populate store pools);
  let last_end =
    List.fold_left
      (fun acc pool ->
        List.fold_left
          (fun acc (_, (off, len)) -> max acc (off + len))
          acc (Mneme.Store.pool_segments pool))
      0 pools
  in
  let f = Vfs.open_file vfs "chk.mneme" in
  Vfs.truncate f (last_end - 1);
  (* The warm handle's check walks extents that now reach past EOF: it
     must report them, never raise. *)
  let report = Mneme.Check.run store in
  Alcotest.(check bool) "truncation reported" false (Mneme.Check.ok report);
  Alcotest.(check bool) "EOF violation named" true
    (List.exists
       (fun p -> Str_find.contains p.Mneme.Check.what "outside file")
       report.Mneme.Check.problems);
  (* A cold reopen either refuses cleanly or checks without raising. *)
  match reopen vfs with
  | exception Mneme.Store.Corrupt _ -> ()
  | exception Invalid_argument _ -> ()
  | store2 ->
    Alcotest.(check bool) "cold check reports too" false
      (Mneme.Check.ok (Mneme.Check.run store2))

let test_pp_report () =
  let _, store, pools = build_store () in
  ignore (populate store pools);
  let s = Format.asprintf "%a" Mneme.Check.pp_report (Mneme.Check.run store) in
  Alcotest.(check bool) "mentions clean" true (Str_find.contains s "clean")

let test_object_check () =
  (* Format-aware fsck: a bit flip inside a stored record's skip table
     is detected by the payload checker and reported, never raised —
     while the scan path still serves the original postings. *)
  let _, store, pools = build_store () in
  let medium = List.nth pools 1 in
  let record = Inquery.Postings.encode (List.init 300 (fun i -> (i * 2, [ 0 ]))) in
  let oid = Mneme.Store.allocate medium record in
  Mneme.Store.finalize store;
  let clean = Mneme.Check.run ~object_check:Inquery.Postings.validate store in
  Alcotest.(check bool) "valid record passes" true (Mneme.Check.ok clean);
  let off =
    match Inquery.Postings.skip_table_region record with
    | Some (off, _) -> off
    | None -> Alcotest.fail "expected a skip table"
  in
  let bad = Bytes.copy record in
  Bytes.set bad off (Char.chr (Char.code (Bytes.get bad off) lxor 1));
  Mneme.Store.modify store oid bad;
  Mneme.Store.finalize store;
  let report = Mneme.Check.run ~object_check:Inquery.Postings.validate store in
  Alcotest.(check bool) "skip-table corruption flagged" false (Mneme.Check.ok report);
  match Mneme.Store.get_opt store oid with
  | Some payload ->
    Alcotest.(check bool) "scan path still readable" true
      (Inquery.Postings.decode payload = Inquery.Postings.decode record)
  | None -> Alcotest.fail "object unreadable"

let test_object_check_garbage () =
  let _, store, pools = build_store () in
  let medium = List.nth pools 1 in
  ignore (Mneme.Store.allocate medium (Bytes.make 33 '\xff'));
  Mneme.Store.finalize store;
  let report = Mneme.Check.run ~object_check:Inquery.Postings.validate store in
  Alcotest.(check bool) "undecodable payload flagged" false (Mneme.Check.ok report)

let test_object_check_sealed_root () =
  (* An object carrying the sealed-root envelope is unsealed instead of
     handed to the payload checker: a whole one passes, a torn one is
     flagged. *)
  let _, store, pools = build_store () in
  let medium = List.nth pools 1 in
  let root = Mneme.Epoch.seal ~epoch:3 (Bytes.of_string "a directory") in
  let oid = Mneme.Store.allocate medium root in
  Mneme.Store.finalize store;
  let deep () = Mneme.Check.run ~object_check:Inquery.Postings.validate store in
  Alcotest.(check bool) "a sealed root passes" true (Mneme.Check.ok (deep ()));
  let torn = Bytes.copy root in
  Bytes.set torn 14 'X';
  Mneme.Store.modify store oid torn;
  Mneme.Store.finalize store;
  let s = Format.asprintf "%a" Mneme.Check.pp_report (deep ()) in
  Alcotest.(check bool) "a torn root is flagged as one" true
    (Str_find.contains s "sealed root invalid")

let suite =
  [
    Alcotest.test_case "clean store" `Quick test_clean_store;
    Alcotest.test_case "object check (skip-table bit flip)" `Quick test_object_check;
    Alcotest.test_case "object check (garbage payload)" `Quick test_object_check_garbage;
    Alcotest.test_case "object check (sealed root)" `Quick test_object_check_sealed_root;
    Alcotest.test_case "clean after updates" `Quick test_clean_after_updates;
    Alcotest.test_case "clean after reopen" `Quick test_clean_after_reopen;
    Alcotest.test_case "detects corruption" `Quick test_detects_corrupted_directory;
    Alcotest.test_case "overlapping directory entries" `Quick
      test_overlapping_directory_entries;
    Alcotest.test_case "truncated final segment" `Quick test_truncated_final_segment;
    Alcotest.test_case "pp report" `Quick test_pp_report;
  ]
