(* v-byte coding: exact values, sizes, error paths, and random
   roundtrips. *)

let check_roundtrip values () =
  let b = Util.Varint.encode_list values in
  Alcotest.(check (list int))
    "roundtrip" values
    (Util.Varint.decode_all b ~pos:0 ~len:(Bytes.length b))

let test_single_byte_values () =
  List.iter
    (fun v ->
      let buf = Buffer.create 4 in
      Util.Varint.encode buf v;
      Alcotest.(check int) (Printf.sprintf "%d is one byte" v) 1 (Buffer.length buf))
    [ 0; 1; 64; 127 ]

let test_boundaries () =
  List.iter
    (fun (v, expect) ->
      Alcotest.(check int) (Printf.sprintf "size of %d" v) expect (Util.Varint.encoded_size v))
    [ (0, 1); (127, 1); (128, 2); (16383, 2); (16384, 3); (1 lsl 21, 4); (max_int, 9) ]

let test_encoded_size_matches_encode () =
  List.iter
    (fun v ->
      let buf = Buffer.create 8 in
      Util.Varint.encode buf v;
      Alcotest.(check int) "size prediction" (Buffer.length buf) (Util.Varint.encoded_size v))
    [ 0; 5; 127; 128; 300; 100000; 1 lsl 40; max_int ]

let test_negative_rejected () =
  Alcotest.check_raises "encode" (Invalid_argument "Varint.encode: negative") (fun () ->
      Util.Varint.encode (Buffer.create 1) (-1));
  Alcotest.check_raises "encoded_size" (Invalid_argument "Varint.encoded_size: negative")
    (fun () -> ignore (Util.Varint.encoded_size (-5)))

let test_truncated_input () =
  (* A continuation byte with nothing after it. *)
  let b = Bytes.make 1 '\x01' in
  Alcotest.check_raises "truncated" (Invalid_argument "Varint.decode: truncated input")
    (fun () -> ignore (Util.Varint.decode b ~pos:0));
  Alcotest.check_raises "truncated read" (Invalid_argument "Varint.decode: truncated input")
    (fun () -> ignore (Util.Varint.read b (ref 0)))

let test_decode_position () =
  let b = Util.Varint.encode_list [ 300; 7 ] in
  let v1, pos = Util.Varint.decode b ~pos:0 in
  let v2, pos' = Util.Varint.decode b ~pos in
  Alcotest.(check int) "first" 300 v1;
  Alcotest.(check int) "second" 7 v2;
  Alcotest.(check int) "consumed all" (Bytes.length b) pos';
  let p = ref 0 in
  let r1 = Util.Varint.read b p in
  let r2 = Util.Varint.read b p in
  Alcotest.(check (list int)) "read agrees" [ v1; v2 ] [ r1; r2 ];
  Alcotest.(check int) "read advances past both" pos' !p

let test_fold_skips_list_building () =
  let values = [ 1; 128; 99; 0; 1 lsl 30 ] in
  let b = Util.Varint.encode_list values in
  let sum = Util.Varint.fold b ~pos:0 ~len:(Bytes.length b) ~init:0 ~f:( + ) in
  Alcotest.(check int) "fold sum" (List.fold_left ( + ) 0 values) sum

let test_fold_range_check () =
  let b = Util.Varint.encode_list [ 1 ] in
  Alcotest.check_raises "range" (Invalid_argument "Varint.fold: range out of bounds") (fun () ->
      ignore (Util.Varint.fold b ~pos:0 ~len:(Bytes.length b + 1) ~init:0 ~f:( + )))

let prop_roundtrip =
  QCheck.Test.make ~name:"varint roundtrip (random non-negative ints)" ~count:500
    QCheck.(list (map abs int))
    (fun values ->
      let b = Util.Varint.encode_list values in
      let p = ref 0 in
      Util.Varint.decode_all b ~pos:0 ~len:(Bytes.length b) = values
      && List.for_all (fun v -> Util.Varint.read b p = v) values)

let suite =
  [
    Alcotest.test_case "roundtrip basic" `Quick (check_roundtrip [ 0; 1; 127; 128; 300; max_int ]);
    Alcotest.test_case "roundtrip empty" `Quick (check_roundtrip []);
    Alcotest.test_case "single byte values" `Quick test_single_byte_values;
    Alcotest.test_case "size boundaries" `Quick test_boundaries;
    Alcotest.test_case "encoded_size matches encode" `Quick test_encoded_size_matches_encode;
    Alcotest.test_case "negative rejected" `Quick test_negative_rejected;
    Alcotest.test_case "truncated input" `Quick test_truncated_input;
    Alcotest.test_case "decode advances position" `Quick test_decode_position;
    Alcotest.test_case "fold" `Quick test_fold_skips_list_building;
    Alcotest.test_case "fold range check" `Quick test_fold_range_check;
    QCheck_alcotest.to_alcotest prop_roundtrip;
  ]
