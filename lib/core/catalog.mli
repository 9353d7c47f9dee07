(** The persistent system catalog: everything a fresh INQUERY session
    needs besides the inverted file itself.

    The paper's INQUERY keeps the hash dictionary "entirely in main
    memory during query processing" — meaning it is read from disk when
    the system starts.  A catalog file holds the serialised dictionary
    (term → id, df, cf, and the Mneme object id locator) plus the
    per-document lengths and collection totals the belief function
    needs.  Sessions opened by {!Experiment} load the catalog before
    timing begins, exactly where the paper's measurement window starts
    ("after all files had been opened and any initialization was
    complete"). *)

type t = {
  dict : Inquery.Dictionary.t;
  n_docs : int;
  doc_lens : int array;  (** indexed by document id; 0 for absent ids *)
  collection_bytes : int;
}

val of_indexer : Inquery.Indexer.t -> t
(** Snapshot a finished build. *)

val avg_doc_length : t -> float
val doc_len : t -> int -> int
(** A document's indexed length; 0 when the id is out of range (the
    [doc_len] an {!Engine} ranks with). *)

val save : Vfs.t -> file:string -> t -> unit
(** Write (replacing any previous contents). *)

val load : Vfs.t -> file:string -> t
(** Raises [Failure] on a missing or corrupt file. *)

val verify_records :
  t -> fetch:(Inquery.Dictionary.entry -> bytes option) -> (string * string) list
(** Fsck pass over the index itself: fetch every dictionary entry's
    record and validate it deeply ({!Inquery.Postings.validate} — header
    consistency, skip-table invariants, gap monotonicity), then
    cross-check the record's df/cf against the dictionary.  Returns
    [(term, problem)] pairs, empty when clean; store-level exceptions
    from [fetch] become problems — never raises. *)
