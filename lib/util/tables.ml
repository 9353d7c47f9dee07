type align = Left | Right

type row = Cells of string list | Separator

type t = { columns : (string * align) list; mutable rows : row list }

let create ~columns = { columns; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.columns then
    invalid_arg "Tables.add_row: cell count mismatch";
  t.rows <- Cells cells :: t.rows

let add_separator t = t.rows <- Separator :: t.rows

let render t =
  let headers = List.map fst t.columns in
  let rows = List.rev t.rows in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun w row ->
            match row with
            | Separator -> w
            | Cells cells -> max w (String.length (List.nth cells i)))
          (String.length h) rows)
      headers
  in
  let pad align width s =
    let fill = String.make (max 0 (width - String.length s)) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s
  in
  let aligns = List.map snd t.columns in
  let render_cells cells =
    let parts =
      List.map2 (fun (a, w) s -> pad a w s) (List.combine aligns widths) cells
    in
    String.concat "  " parts
  in
  let rule =
    String.concat "--" (List.map (fun w -> String.make w '-') widths)
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (render_cells headers);
  Buffer.add_char buf '\n';
  Buffer.add_string buf rule;
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      (match row with
      | Separator -> Buffer.add_string buf rule
      | Cells cells -> Buffer.add_string buf (render_cells cells));
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

let print t = print_string (render t)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when c < ' ' || c > '~' -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let to_json tables =
  let strings cells = "[" ^ String.concat ", " (List.map json_string cells) ^ "]" in
  let table (label, t) =
    let rows =
      List.filter_map
        (function Cells cells -> Some ("\n        " ^ strings cells) | Separator -> None)
        (List.rev t.rows)
    in
    Printf.sprintf "\n    { \"label\": %s,\n      \"columns\": %s,\n      \"rows\": [%s ] }"
      (json_string label)
      (strings (List.map fst t.columns))
      (String.concat "," rows)
  in
  "[" ^ String.concat "," (List.map table tables) ^ "\n  ]"

let fmt_float ?(decimals = 2) x = Printf.sprintf "%.*f" decimals x
let fmt_pct x = Printf.sprintf "%.0f%%" (x *. 100.0)
let fmt_kbytes bytes = string_of_int ((bytes + 1023) / 1024)
