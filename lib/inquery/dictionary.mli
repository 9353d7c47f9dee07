(** The open-chaining hash dictionary.

    INQUERY maps text strings to unique integer term ids with an
    open-chaining hash dictionary that also stores summary statistics
    per string and "resides entirely in main memory during query
    processing".  The integrated system additionally stores, per term,
    the locator of the term's inverted list record — the B-tree key is
    the term id itself, while the Mneme version keeps the object id
    here, exactly as in the paper.

    This is a from-scratch chained hash table (not [Hashtbl]) with
    explicit growth, plus a flat id -> entry index for O(1) reverse
    lookup, and a compact serialised form. *)

type t

type entry = {
  term : string;
  id : int;  (** dense ids, assigned in intern order starting at 0 *)
  mutable df : int;  (** document frequency *)
  mutable cf : int;  (** collection frequency (total occurrences) *)
  mutable locator : int;  (** inverted-list locator (e.g. Mneme oid); -1 = unset *)
}

val create : ?initial_buckets:int -> unit -> t
(** [initial_buckets] (default 1024, at least 16) sizes both the hash
    table and the id index; each grows on demand, so the size changes
    no id, no {!iter} order and no {!serialize} byte. *)

val intern : t -> string -> entry
(** Find or add; new entries get the next id and zeroed statistics. *)

val find : t -> string -> entry option
val find_by_id : t -> int -> entry option
val size : t -> int
val iter : t -> (entry -> unit) -> unit
(** In id order. *)

val bucket_count : t -> int
(** Current table width (for load-factor tests). *)

val serialize : t -> bytes
val deserialize : bytes -> t
(** Raises [Failure] on a corrupt image. *)
