(** The original configuration: inverted file index as a keyed file,
    term ids as keys, B-tree index.

    [build] bulk-loads the records emitted by an {!Inquery.Indexer};
    [open_session] re-opens the file the way each timed run did (no
    state survives from the build), yielding an {!Index_store} whose
    every lookup pays the paper's characteristic "more than one disk
    access". *)

val build : Vfs.t -> file:string -> (int * bytes) Seq.t -> Btree.t
(** Create and bulk-load; returns the tree (callers usually only need
    the side effect).  Raises like {!Btree.create}/{!Btree.bulk_load}. *)

val session : Btree.t -> Index_store.t
(** An index session over an already-open tree: each lookup is a
    {!Btree.lookup} by term id, with the tree's own node caching. *)

val open_session : Vfs.t -> file:string -> Index_store.t
(** {!session} over the tree re-opened with the paper's root-only node
    cache.  Raises [Failure] if the file is missing or corrupt. *)
