(** Variable-byte ("v-byte") integer coding.

    The classic IR compression scheme: each byte carries 7 payload bits,
    the high bit marks the final byte of a value.  Inverted-list records
    in {!Inquery.Postings} are sequences of v-byte coded deltas, which is
    how the original INQUERY achieved its ~60 % compression rate. *)

val encoded_size : int -> int
(** [encoded_size n] is the number of bytes [encode] will emit for [n].
    Raises [Invalid_argument] if [n < 0]. *)

val encode : Buffer.t -> int -> unit
(** [encode buf n] appends the v-byte coding of [n] to [buf].
    Raises [Invalid_argument] if [n < 0]. *)

val decode : bytes -> pos:int -> int * int
(** [decode b ~pos] reads one v-byte value starting at [pos] and returns
    [(value, next_pos)].  Raises [Invalid_argument] on truncated input. *)

val read : bytes -> int ref -> int
(** [read b pos] is {!decode} at [!pos] with [pos] advanced past the
    value: no result pair is allocated, for decode loops. *)

val encode_list : int list -> bytes
(** [encode_list vs] codes all values back to back. *)

val decode_all : bytes -> pos:int -> len:int -> int list
(** [decode_all b ~pos ~len] decodes every value in [b.[pos .. pos+len-1]].
    Raises [Invalid_argument] if the range is truncated mid-value. *)

val fold : bytes -> pos:int -> len:int -> init:'a -> f:('a -> int -> 'a) -> 'a
(** [fold b ~pos ~len ~init ~f] folds [f] over each decoded value without
    building an intermediate list. *)
