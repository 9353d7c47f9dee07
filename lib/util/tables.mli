(** Fixed-width plain-text and JSON rendering of experiment reports.

    Every table, figure series and measurement the [repro] commands
    report is built as a [t] and printed through this module, so the
    reproduction output lines up with the paper's tables visually and
    its JSON form carries exactly the cells the text shows. *)

type align = Left | Right

type t

val create : columns:(string * align) list -> t
(** [create ~columns] starts a table with the given header cells. *)

val add_row : t -> string list -> unit
(** Append one row.  Raises [Invalid_argument] if the cell count differs
    from the column count. *)

val add_separator : t -> unit
(** Append a horizontal rule row. *)

val render : t -> string
(** Render with padded columns, a header rule, and a trailing newline. *)

val print : t -> unit
(** [print t] writes [render t] to stdout. *)

val json_string : string -> string
(** A JSON string literal: quotes, backslashes and every byte outside
    printable ASCII escaped (as [\u00XX]), so any text parses. *)

val to_json : (string * t) list -> string
(** Labelled tables as a JSON array, one
    [{"label": _, "columns": [_], "rows": [[_]]}] object per table in
    list order.  Columns and cells stay the strings [render] prints, in
    order; separator rows are skipped. *)

val fmt_float : ?decimals:int -> float -> string
(** Fixed-point formatting, default 2 decimals. *)

val fmt_pct : float -> string
(** [fmt_pct 0.37] is ["37%"]. *)

val fmt_kbytes : int -> string
(** Bytes rendered as integral Kbytes (paper convention). *)
