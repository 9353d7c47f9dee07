(** The integrated configuration: one Mneme object per inverted list.

    [build] allocates every record into the small/medium/large pool
    chosen by {!Partition} and stores each object's Mneme id in the
    term's hash-dictionary entry (the [locator] field) — exactly the
    paper's integration.  [open_session] re-opens the finalized store,
    creates one buffer per pool with the requested capacities (0 = the
    no-cache configuration), and exposes the {!Index_store} interface,
    including query-tree reservation. *)

val default_policies : Mneme.Policy.t * Mneme.Policy.t * Mneme.Policy.t
(** The paper's (small, medium, large) pool configuration. *)

val build :
  ?thresholds:Partition.thresholds ->
  ?policies:Mneme.Policy.t * Mneme.Policy.t * Mneme.Policy.t ->
  Vfs.t ->
  file:string ->
  dict:Inquery.Dictionary.t ->
  (int * bytes) Seq.t ->
  Mneme.Store.t
(** Build and finalize the store.  Every record's term id must resolve
    in [dict] (the indexer guarantees this); raises [Failure] otherwise.
    [policies] substitutes custom pool policies (they must keep the
    names small/medium/large; raises [Invalid_argument] otherwise) —
    the segment-size ablations use this. *)

val session : Mneme.Store.t -> Index_store.t
(** An index session over an already-open store holding the three
    pools, each with a buffer attached: the buffers serve the faults and
    report the statistics, and a session whose buffers all have
    capacity 0 is named "mneme-nocache".  Raises [Not_found] if a pool
    is missing and [Invalid_argument] if one has no buffer. *)

val open_session :
  ?policy:Mneme.Buffer_pool.policy ->
  Vfs.t ->
  file:string ->
  buffers:Buffer_sizing.t ->
  Index_store.t
(** {!session} over the re-opened store, each pool given a fresh buffer
    of the requested capacity.  [policy] selects the replacement
    algorithm for all three buffers (default LRU, as in the paper).
    Raises {!Mneme.Store.Corrupt} on a bad file. *)
