(* Bit-granular I/O. *)

let test_single_bits () =
  let w = Util.Bitio.Writer.create () in
  List.iter (Util.Bitio.Writer.bit w) [ true; false; true; true ];
  Alcotest.(check int) "bit length" 4 (Util.Bitio.Writer.bit_length w);
  let b = Util.Bitio.Writer.to_bytes w in
  Alcotest.(check int) "one byte padded" 1 (Bytes.length b);
  Alcotest.(check int) "msb first, zero padded" 0b10110000 (Char.code (Bytes.get b 0));
  let r = Util.Bitio.Reader.create b in
  Alcotest.(check (list bool)) "read back" [ true; false; true; true ]
    (List.init 4 (fun _ -> Util.Bitio.Reader.bit r))

let test_bits_roundtrip () =
  let w = Util.Bitio.Writer.create () in
  Util.Bitio.Writer.bits w ~value:0b1011 ~width:4;
  Util.Bitio.Writer.bits w ~value:1023 ~width:10;
  Util.Bitio.Writer.bits w ~value:0 ~width:0;
  Util.Bitio.Writer.bits w ~value:5 ~width:9;
  let r = Util.Bitio.Reader.create (Util.Bitio.Writer.to_bytes w) in
  Alcotest.(check int) "4-bit" 0b1011 (Util.Bitio.Reader.bits r ~width:4);
  Alcotest.(check int) "10-bit" 1023 (Util.Bitio.Reader.bits r ~width:10);
  Alcotest.(check int) "0-bit" 0 (Util.Bitio.Reader.bits r ~width:0);
  Alcotest.(check int) "9-bit" 5 (Util.Bitio.Reader.bits r ~width:9)

let test_unary () =
  let w = Util.Bitio.Writer.create () in
  List.iter (Util.Bitio.Writer.unary w) [ 0; 3; 11 ];
  let r = Util.Bitio.Reader.create (Util.Bitio.Writer.to_bytes w) in
  Alcotest.(check (list int)) "unary" [ 0; 3; 11 ]
    (List.init 3 (fun _ -> Util.Bitio.Reader.unary r))

let test_bounds () =
  let w = Util.Bitio.Writer.create () in
  Alcotest.(check bool) "wide value rejected" true
    (match Util.Bitio.Writer.bits w ~value:4 ~width:2 with
    | () -> false
    | exception Invalid_argument _ -> true);
  let r = Util.Bitio.Reader.create (Bytes.make 1 '\255') in
  ignore (Util.Bitio.Reader.bits r ~width:3);
  Alcotest.(check bool) "bits past end" true
    (match Util.Bitio.Reader.bits r ~width:6 with _ -> false | exception Invalid_argument _ -> true);
  Alcotest.(check int) "a failed read consumes nothing" 5 (Util.Bitio.Reader.remaining r);
  ignore (Util.Bitio.Reader.bits r ~width:5);
  Alcotest.(check bool) "read past end" true
    (match Util.Bitio.Reader.bit r with _ -> false | exception Invalid_argument _ -> true)

let test_reader_accounting () =
  let r = Util.Bitio.Reader.create (Bytes.make 2 '\000') in
  Alcotest.(check int) "remaining" 16 (Util.Bitio.Reader.remaining r);
  ignore (Util.Bitio.Reader.bits r ~width:5);
  Alcotest.(check int) "consumed" 5 (Util.Bitio.Reader.bits_consumed r);
  Alcotest.(check int) "remaining after" 11 (Util.Bitio.Reader.remaining r)

let test_of_sub () =
  let b = Bytes.of_string "\x00\xf0\x00" in
  let r = Util.Bitio.Reader.of_sub b ~pos:1 ~len:1 in
  Alcotest.(check int) "window" 0xf0 (Util.Bitio.Reader.bits r ~width:8);
  Alcotest.(check bool) "window end enforced" true
    (match Util.Bitio.Reader.bit r with _ -> false | exception Invalid_argument _ -> true)

let prop_roundtrip =
  QCheck.Test.make ~name:"bitio bits roundtrip" ~count:300
    QCheck.(list (pair (int_range 0 30) (int_range 0 1_000_000)))
    (fun pairs ->
      let pairs = List.map (fun (w, v) -> (max 20 w, v land ((1 lsl max 20 w) - 1))) pairs in
      let w = Util.Bitio.Writer.create () in
      List.iter (fun (width, value) -> Util.Bitio.Writer.bits w ~value ~width) pairs;
      let r = Util.Bitio.Reader.create (Util.Bitio.Writer.to_bytes w) in
      List.for_all (fun (width, value) -> Util.Bitio.Reader.bits r ~width = value) pairs)

let suite =
  [
    Alcotest.test_case "single bits" `Quick test_single_bits;
    Alcotest.test_case "bits roundtrip" `Quick test_bits_roundtrip;
    Alcotest.test_case "unary" `Quick test_unary;
    Alcotest.test_case "bounds" `Quick test_bounds;
    Alcotest.test_case "reader accounting" `Quick test_reader_accounting;
    Alcotest.test_case "of_sub" `Quick test_of_sub;
    QCheck_alcotest.to_alcotest prop_roundtrip;
  ]
