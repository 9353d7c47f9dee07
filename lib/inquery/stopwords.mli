(** Stop word filtering.

    The paper's runs used "appropriate ... stop words files" — words too
    frequent or too weakly meaningful to index.  A standard English list
    is built in; custom lists can be loaded from the same one-word-per-
    line format INQUERY used. *)

type t

val default : t
(** The classic van Rijsbergen-derived English stop list (~320 words). *)

val of_list : string list -> t
(** Words are lowercased on the way in. *)

val of_file_contents : string -> t
(** Parse a stop words file: one word per line, [#] comments allowed. *)

val is_stopword : t -> string -> bool
(** The probe must already be lowercase (tokens from {!Lexer} are). *)

val normalize : ?stopwords:t -> stem:bool -> string -> string option
(** The one term normalisation rule shared by indexing, evaluation and
    the result-cache key: [None] if the term is in [stopwords], else the
    term, Porter-stemmed when [stem]. *)

val size : t -> int
