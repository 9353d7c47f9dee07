(** The inverted-file-index service interface.

    INQUERY's retrieval engine needs exactly this from its data
    management subsystem: fetch the record for a dictionary entry, and
    (optionally) reserve records a query is about to use.  The B-tree
    package and the Mneme store each implement it; swapping one for the
    other is the entire point of the paper. *)

type t = {
  name : string;  (** "btree", "mneme-nocache", "mneme-cache" *)
  fetch : Inquery.Dictionary.entry -> bytes option;
      (** Retrieve the inverted list record for a term. *)
  reserve : Inquery.Dictionary.entry list -> unit -> unit;
      (** Pin already-resident records before query processing; the
          returned thunk releases them.  A no-op for backends without
          user-space caching. *)
  buffer_stats : unit -> (string * Util.Cache_stats.t) list;
      (** Per-buffer reference/hit statistics (empty for the B-tree). *)
  reset_buffer_stats : unit -> unit;
  file_size : unit -> int;
  epoch : unit -> int;
      (** The published epoch this session serves ({!Mneme.Store.epoch};
          0 for backends without epoch versioning). *)
  attach_frames : Util.Block_cache.t -> unit;
      (** Hold this session's verified segments as frames in the given
          cache ({!Mneme.Store.set_frames}), replacing any cache
          attached before: a session serves one frontend's budget.  A
          no-op for backends without segments. *)
  fetch_resident : Inquery.Dictionary.entry -> bytes option;
      (** The record {!fetch} would return, if it can be had without
          I/O ({!Mneme.Store.fetch_resident}): no file access and no
          simulated time.  [None] when it cannot, and always for
          backends without segments. *)
}

val no_reserve : Inquery.Dictionary.entry list -> unit -> unit
(** The trivial reservation. *)

val no_frames : Util.Block_cache.t -> unit
(** The trivial [attach_frames]. *)

val never_resident : Inquery.Dictionary.entry -> bytes option
(** The trivial [fetch_resident]: always [None]. *)
