(* Table rendering. *)

let test_render_alignment () =
  let t = Util.Tables.create ~columns:[ ("Name", Util.Tables.Left); ("N", Util.Tables.Right) ] in
  Util.Tables.add_row t [ "a"; "1" ];
  Util.Tables.add_row t [ "long"; "100" ];
  let out = Util.Tables.render t in
  let lines = String.split_on_char '\n' out in
  (match lines with
  | header :: _rule :: row1 :: row2 :: _ ->
    Alcotest.(check string) "header" "Name    N" header;
    Alcotest.(check string) "row1 padded" "a       1" row1;
    Alcotest.(check string) "row2" "long  100" row2
  | _ -> Alcotest.fail "unexpected line count");
  Alcotest.(check bool) "trailing newline" true (String.length out > 0 && out.[String.length out - 1] = '\n')

let test_rows_in_order () =
  let t = Util.Tables.create ~columns:[ ("X", Util.Tables.Left) ] in
  Util.Tables.add_row t [ "first" ];
  Util.Tables.add_row t [ "second" ];
  let out = Util.Tables.render t in
  let first_idx r = Str_find.find out r in
  Alcotest.(check bool) "order preserved" true (first_idx "first" < first_idx "second")

let test_cell_count_mismatch () =
  let t = Util.Tables.create ~columns:[ ("A", Util.Tables.Left); ("B", Util.Tables.Left) ] in
  Alcotest.check_raises "mismatch" (Invalid_argument "Tables.add_row: cell count mismatch")
    (fun () -> Util.Tables.add_row t [ "only one" ])

let test_separator () =
  let t = Util.Tables.create ~columns:[ ("A", Util.Tables.Left) ] in
  Util.Tables.add_row t [ "x" ];
  Util.Tables.add_separator t;
  Util.Tables.add_row t [ "y" ];
  let lines = String.split_on_char '\n' (Util.Tables.render t) in
  Alcotest.(check int) "line count (header, rule, x, rule, y, trailing)" 6 (List.length lines)

let test_formatters () =
  Alcotest.(check string) "float default" "3.14" (Util.Tables.fmt_float 3.14159);
  Alcotest.(check string) "float decimals" "3.1" (Util.Tables.fmt_float ~decimals:1 3.14159);
  Alcotest.(check string) "pct" "37%" (Util.Tables.fmt_pct 0.37);
  Alcotest.(check string) "kbytes rounds up" "2" (Util.Tables.fmt_kbytes 1025);
  Alcotest.(check string) "kbytes exact" "1" (Util.Tables.fmt_kbytes 1024);
  Alcotest.(check string) "kbytes zero" "0" (Util.Tables.fmt_kbytes 0)

(* [s] with the whitespace outside JSON string literals removed, so the
   JSON test checks content and order, not layout. *)
let compact s =
  let b = Buffer.create (String.length s) in
  let in_string = ref false and escaped = ref false in
  String.iter
    (fun c ->
      if !in_string then begin
        Buffer.add_char b c;
        if !escaped then escaped := false
        else if c = '\\' then escaped := true
        else if c = '"' then in_string := false
      end
      else if c = '"' then begin
        Buffer.add_char b c;
        in_string := true
      end
      else if not (List.mem c [ ' '; '\n'; '\t' ]) then Buffer.add_char b c)
    s;
  Buffer.contents b

let test_json () =
  let t = Util.Tables.create ~columns:[ ("name", Util.Tables.Left); ("n", Util.Tables.Right) ] in
  Util.Tables.add_row t [ "a"; "1" ];
  Util.Tables.add_separator t;
  Util.Tables.add_row t [ "b b"; "2" ];
  let u = Util.Tables.create ~columns:[ ("q\"b\\s", Util.Tables.Left) ] in
  Util.Tables.add_row u [ "tab\tnl\ndel\x7f\xc3\xa9" ];
  let empty = Util.Tables.create ~columns:[ ("x", Util.Tables.Left) ] in
  Alcotest.(check string) "labels, columns and cells in order; separator skipped; escaped"
    ({|[{"label":"first","columns":["name","n"],"rows":[["a","1"],["b b","2"]]},|}
    ^ {|{"label":"second","columns":["q\"b\\s"],|}
    ^ {|"rows":[["tab\u0009nl\u000adel\u007f\u00c3\u00a9"]]},|}
    ^ {|{"label":"3\u00c2\u00b0","columns":["x"],"rows":[]}]|})
    (compact (Util.Tables.to_json [ ("first", t); ("second", u); ("3\xc2\xb0", empty) ]));
  Alcotest.(check string) "no tables" "[]" (compact (Util.Tables.to_json []));
  Alcotest.(check string) "string literal" {|"a\"b\\c\u0000~\u0080"|}
    (Util.Tables.json_string "a\"b\\c\000~\x80")

let suite =
  [
    Alcotest.test_case "render alignment" `Quick test_render_alignment;
    Alcotest.test_case "rows in order" `Quick test_rows_in_order;
    Alcotest.test_case "cell count mismatch" `Quick test_cell_count_mismatch;
    Alcotest.test_case "separator" `Quick test_separator;
    Alcotest.test_case "formatters" `Quick test_formatters;
    Alcotest.test_case "json" `Quick test_json;
  ]
