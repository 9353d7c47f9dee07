(* The open-chaining hash dictionary. *)

let test_intern_assigns_dense_ids () =
  let d = Inquery.Dictionary.create () in
  let a = Inquery.Dictionary.intern d "alpha" in
  let b = Inquery.Dictionary.intern d "beta" in
  Alcotest.(check int) "first id" 0 a.Inquery.Dictionary.id;
  Alcotest.(check int) "second id" 1 b.Inquery.Dictionary.id;
  Alcotest.(check int) "size" 2 (Inquery.Dictionary.size d)

let test_intern_idempotent () =
  let d = Inquery.Dictionary.create () in
  let a = Inquery.Dictionary.intern d "term" in
  let a' = Inquery.Dictionary.intern d "term" in
  Alcotest.(check bool) "same entry" true (a == a');
  Alcotest.(check int) "size" 1 (Inquery.Dictionary.size d)

let test_find () =
  let d = Inquery.Dictionary.create () in
  ignore (Inquery.Dictionary.intern d "present");
  Alcotest.(check bool) "found" true (Inquery.Dictionary.find d "present" <> None);
  Alcotest.(check bool) "missing" true (Inquery.Dictionary.find d "absent" = None)

let test_find_by_id () =
  let d = Inquery.Dictionary.create () in
  let e = Inquery.Dictionary.intern d "x" in
  (match Inquery.Dictionary.find_by_id d e.Inquery.Dictionary.id with
  | Some e' -> Alcotest.(check string) "term" "x" e'.Inquery.Dictionary.term
  | None -> Alcotest.fail "missing");
  Alcotest.(check bool) "out of range" true (Inquery.Dictionary.find_by_id d 99 = None);
  Alcotest.(check bool) "negative" true (Inquery.Dictionary.find_by_id d (-1) = None)

let test_statistics_mutation () =
  let d = Inquery.Dictionary.create () in
  let e = Inquery.Dictionary.intern d "t" in
  Alcotest.(check int) "df starts 0" 0 e.Inquery.Dictionary.df;
  Alcotest.(check int) "locator unset" (-1) e.Inquery.Dictionary.locator;
  e.Inquery.Dictionary.df <- 5;
  e.Inquery.Dictionary.cf <- 17;
  e.Inquery.Dictionary.locator <- 1234;
  match Inquery.Dictionary.find d "t" with
  | Some e' ->
    Alcotest.(check int) "df" 5 e'.Inquery.Dictionary.df;
    Alcotest.(check int) "cf" 17 e'.Inquery.Dictionary.cf;
    Alcotest.(check int) "locator" 1234 e'.Inquery.Dictionary.locator
  | None -> Alcotest.fail "lost"

let test_growth () =
  let d = Inquery.Dictionary.create ~initial_buckets:16 () in
  let n = 5000 in
  for i = 0 to n - 1 do
    ignore (Inquery.Dictionary.intern d (Printf.sprintf "term%d" i))
  done;
  Alcotest.(check int) "all interned" n (Inquery.Dictionary.size d);
  Alcotest.(check bool) "table grew" true (Inquery.Dictionary.bucket_count d > 16);
  (* Every term still findable after rehashing. *)
  for i = 0 to n - 1 do
    if Inquery.Dictionary.find d (Printf.sprintf "term%d" i) = None then
      Alcotest.fail (Printf.sprintf "lost term%d" i)
  done

(* The id index starts at the table's width and doubles as terms
   arrive: a dictionary started at the floor of 16 buckets hands out the
   ids, the iteration order and the serialized bytes of a default-sized
   one. *)
let test_small_start_matches_default () =
  let small = Inquery.Dictionary.create ~initial_buckets:16 () in
  let default = Inquery.Dictionary.create () in
  let n = 5000 in
  for i = 0 to n - 1 do
    List.iter
      (fun d ->
        let e = Inquery.Dictionary.intern d (Printf.sprintf "term%d" ((i * 7919) mod n)) in
        e.Inquery.Dictionary.df <- i;
        e.Inquery.Dictionary.cf <- 3 * i;
        e.Inquery.Dictionary.locator <- i - 1)
      [ small; default ]
  done;
  Alcotest.(check int) "all interned" n (Inquery.Dictionary.size small);
  for i = 0 to n - 1 do
    let term = Printf.sprintf "term%d" ((i * 7919) mod n) in
    match Inquery.Dictionary.find_by_id small i with
    | Some e when e.Inquery.Dictionary.term = term && e.Inquery.Dictionary.id = i -> ()
    | _ -> Alcotest.failf "id %d is not %s, the %dth term interned" i term i
  done;
  let ids = ref [] in
  Inquery.Dictionary.iter small (fun e ->
      if Inquery.Dictionary.find_by_id small e.Inquery.Dictionary.id <> Some e then
        Alcotest.failf "iter and find_by_id disagree at %d" e.Inquery.Dictionary.id;
      ids := e.Inquery.Dictionary.id :: !ids);
  Alcotest.(check (list int)) "iter in id order" (List.init n Fun.id) (List.rev !ids);
  Alcotest.(check bool) "the serialized bytes of a default-sized one" true
    (Bytes.equal (Inquery.Dictionary.serialize small) (Inquery.Dictionary.serialize default))

let test_iter_in_id_order () =
  let d = Inquery.Dictionary.create () in
  List.iter (fun w -> ignore (Inquery.Dictionary.intern d w)) [ "c"; "a"; "b" ];
  let order = ref [] in
  Inquery.Dictionary.iter d (fun e -> order := e.Inquery.Dictionary.term :: !order);
  Alcotest.(check (list string)) "intern order" [ "c"; "a"; "b" ] (List.rev !order)

let test_serialize_roundtrip () =
  let d = Inquery.Dictionary.create () in
  List.iteri
    (fun i w ->
      let e = Inquery.Dictionary.intern d w in
      e.Inquery.Dictionary.df <- i * 2;
      e.Inquery.Dictionary.cf <- (i * 10) + 1;
      e.Inquery.Dictionary.locator <- (if i mod 2 = 0 then -1 else i * 100))
    [ "one"; "two"; "three"; "with spaces?" ];
  let d' = Inquery.Dictionary.deserialize (Inquery.Dictionary.serialize d) in
  Alcotest.(check int) "size" (Inquery.Dictionary.size d) (Inquery.Dictionary.size d');
  Inquery.Dictionary.iter d (fun e ->
      match Inquery.Dictionary.find d' e.Inquery.Dictionary.term with
      | None -> Alcotest.fail ("lost " ^ e.Inquery.Dictionary.term)
      | Some e' ->
        Alcotest.(check int) "id" e.Inquery.Dictionary.id e'.Inquery.Dictionary.id;
        Alcotest.(check int) "df" e.Inquery.Dictionary.df e'.Inquery.Dictionary.df;
        Alcotest.(check int) "cf" e.Inquery.Dictionary.cf e'.Inquery.Dictionary.cf;
        Alcotest.(check int) "locator" e.Inquery.Dictionary.locator e'.Inquery.Dictionary.locator)

let test_deserialize_corrupt () =
  Alcotest.(check bool) "corrupt raises" true
    (match Inquery.Dictionary.deserialize (Bytes.make 3 'x') with
    | _ -> false
    | exception Failure _ -> true)

let test_empty_string_key () =
  let d = Inquery.Dictionary.create () in
  let e = Inquery.Dictionary.intern d "" in
  Alcotest.(check int) "id" 0 e.Inquery.Dictionary.id;
  Alcotest.(check bool) "findable" true (Inquery.Dictionary.find d "" <> None)

let prop_model =
  QCheck.Test.make ~name:"dictionary matches Hashtbl model" ~count:100
    QCheck.(list (string_of_size (QCheck.Gen.int_range 0 8)))
    (fun words ->
      let d = Inquery.Dictionary.create () in
      let model = Hashtbl.create 16 in
      List.iter
        (fun w ->
          let e = Inquery.Dictionary.intern d w in
          if not (Hashtbl.mem model w) then Hashtbl.add model w e.Inquery.Dictionary.id)
        words;
      Inquery.Dictionary.size d = Hashtbl.length model
      && Hashtbl.fold
           (fun w id acc ->
             acc
             && match Inquery.Dictionary.find d w with
                | Some e -> e.Inquery.Dictionary.id = id
                | None -> false)
           model true)

let suite =
  [
    Alcotest.test_case "dense ids" `Quick test_intern_assigns_dense_ids;
    Alcotest.test_case "intern idempotent" `Quick test_intern_idempotent;
    Alcotest.test_case "find" `Quick test_find;
    Alcotest.test_case "find_by_id" `Quick test_find_by_id;
    Alcotest.test_case "statistics mutation" `Quick test_statistics_mutation;
    Alcotest.test_case "growth" `Quick test_growth;
    Alcotest.test_case "iter in id order" `Quick test_iter_in_id_order;
    Alcotest.test_case "a 16-bucket start matches a default one" `Quick
      test_small_start_matches_default;
    Alcotest.test_case "serialize roundtrip" `Quick test_serialize_roundtrip;
    Alcotest.test_case "deserialize corrupt" `Quick test_deserialize_corrupt;
    Alcotest.test_case "empty string key" `Quick test_empty_string_key;
    QCheck_alcotest.to_alcotest prop_model;
  ]
