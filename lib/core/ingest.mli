(** Crash-safe online ingestion: an in-memory postings write buffer
    unioned with the on-disk index at query time, drained by a
    budgeted, tiered background merge.

    The paper's system re-indexes the whole collection to change it;
    this module makes the index {e online}.  Following Asadi & Lin's
    contiguous-buffer design, each accepted document is tokenized once
    and appended to one growing delta-compressed run per term
    (v-byte doc-gap/tf/position-gaps — the postings v1 body).  Full
    buffers are sealed into immutable segments and combined
    tier-by-tier in memory; a background {!merge_step} folds the oldest
    segments into Mneme postings objects under a {!Mneme.Budget}.  A
    fold concatenates each segment's runs per term whatever their
    tiers; the combine buys capacity and search speed instead: a
    combined segment holds each term's name and header once, so the
    buffer sheds load later, and a union search joins fewer runs.

    {b Exactly-once durability.}  Every accepted operation is written
    to a write-ahead log and fsynced before its acknowledgement
    returns; the per-record CRC32 cuts a torn tail, so an unacked
    document is absent or wholly present.  Each merge commits the new
    postings objects, the document table, pending deletions and the
    new WAL frontier (the [ingest_seq] root metadata) as {e one}
    journaled epoch publication — a crash at any physical I/O recovers
    to wholly the old index or wholly the new one, and {!open_}
    replays exactly the WAL suffix past the recovered frontier: no
    acknowledged document is ever lost or applied twice
    ({!Core.Torture.ingest} enumerates every crash point and
    proves it).

    {b Union queries.}  {!latest} is the union of disk and memory as a
    {!Live_index.view} with exact collection statistics: per query term
    its chunks are the disk record's chunks, the sealed runs and the
    active run, oldest first, and its [keep] drops pending deletions, so
    {!Live_index.record} concatenates them in one pass
    ({!Inquery.Postings.concat}: each decoded once, the union encoded
    once) into a record — and hence df, tf and every belief —
    bit-identical to a from-scratch index of the union's documents.
    {!search} ranks it with {!Live_index.rank}.  {!pin} freezes the
    whole union (disk epoch pin + sealed segment list), and ranking its
    {!pinned} view gives bit-identical re-reads under churn. *)

type config = {
  buffer_budget : int;
      (** byte budget for the whole memory buffer (active + sealed);
          at or above it {!add_document} sheds load *)
  seal_bytes : int;  (** seal the active segment at this many bytes *)
  tier_fanout : int;
      (** combine this many same-tier segments into one of the next
          tier (in memory) *)
}

val default_config : config
(** 1 MiB buffer budget, 16 KiB seals, fanout 4. *)

type ack =
  | Acked of { doc : int; seq : int }
      (** Durable: the WAL record is fsynced.  [doc] is the assigned
          document id, [seq] the operation's WAL sequence number. *)
  | Overloaded
      (** Backpressure: the buffer is at its byte budget (the merge is
          behind).  Nothing was written or assigned; retry after a
          {!merge_step}. *)

type t

val create :
  ?config:config ->
  ?stopwords:Inquery.Stopwords.t ->
  ?stem:bool ->
  Vfs.t ->
  file:string ->
  unit ->
  t
(** A fresh ingesting index: a journaled Mneme live index on [file]
    (journal [file ^ ".log"]) and a write-ahead log [file ^ ".wal"].
    Raises [Invalid_argument] on a nonsensical [config]. *)

val open_ :
  ?config:config ->
  ?stopwords:Inquery.Stopwords.t ->
  ?stem:bool ->
  Vfs.t ->
  file:string ->
  unit ->
  t
(** Recover after a crash (or reopen cleanly): run journal recovery,
    open the live index from its sealed root, read the [ingest_seq]
    frontier from the root's metadata, and replay the WAL's valid
    prefix past it through the ordinary buffering path (the torn tail,
    if any, is cut).  If no epoch was ever committed the disk index is
    restarted empty and the whole WAL replays — every acknowledged
    operation is recovered either way.  A root without an [ingest_seq]
    was never folded into (frontier -1); a root whose [ingest_seq] is
    not the decimal form of an integer >= 0 is damaged and raises
    [Mneme.Store.Corrupt] — never read as -1, which would replay
    documents already on disk. *)

val add_document : t -> string -> ack
(** Accept one document: WAL append + fsync (the acknowledgement
    point), then tokenize and absorb into the memory buffer — no index
    I/O on the write path.  Returns {!Overloaded} without side effects
    once {!buffered_bytes} reaches the configured budget. *)

val delete_document : t -> int -> bool
(** Delete from the union: WAL append + fsync, then the document is
    masked immediately (a tombstone) and physically removed from the
    disk index by the merge step whose frontier passes the deletion.
    [false] (and no WAL write) if the document is not in the union. *)

val merge_step : ?budget:Mneme.Budget.t -> t -> bool
(** Fold the oldest sealed memory segments — as many as [budget]
    admits (default unlimited), always at least one; the active
    segment is sealed first if nothing else is pending — into the disk
    index as one crash-atomic epoch.  Returns [false] (and does
    nothing) when the buffer holds neither documents nor pending
    deletions; a tombstone-only buffer still folds, so a {!drain}
    always advances the frontier to {!last_seq}.  After the fold that
    empties the buffer, the WAL is truncated: everything it held is at
    or below the durable frontier. *)

val drain : ?budget:Mneme.Budget.t -> t -> unit
(** {!merge_step} until the buffer is empty. *)

val latest : t -> Live_index.view
(** The union of the memory buffer and the disk index, less pending
    deletions: each term's chunks are the disk record's chunks, then the
    sealed runs oldest first, then the active run, and [keep] drops the
    tombstoned documents ([None] while no deletion is pending), so its
    {!Live_index.record} is byte for byte the record a single index
    holding the union's documents would store, with its df and cf.
    With no deletion pending, a term stored on disk as one chunk and
    buffered nowhere is that chunk's bytes, decoded by no one. *)

val search : ?top_k:int -> t -> string -> Inquery.Ranking.ranked list
(** [Live_index.rank ?top_k (live t) (latest t)]: rankings are
    bit-identical to a single index holding the union's documents. *)

(** {2 Pinned union reading} *)

type pin

val pin : t -> pin
(** Freeze the current union: the live index's epoch is pinned and the
    sealed segment list captured (the active segment is sealed first —
    a memory-only operation).  Later additions, deletions, merges and
    gc do not move the view. *)

val release : t -> pin -> unit

val pinned : t -> pin -> Live_index.view
(** The union as the pin froze it: {!Live_index.rank} over it is
    bit-identical to what {!search} returned when the pin was taken. *)

(** {2 Introspection} *)

val live : t -> Live_index.t
(** The disk index underneath (gc, stranded bytes, fsck). *)

val document_count : t -> int
(** Documents in the union. *)

val contains_document : t -> int -> bool

val documents : t -> (int * int) list
(** The union's [(doc, indexed_length)] table, sorted — the
    exactly-once audit's ground truth. *)

val merged_seq : t -> int

val last_seq : t -> int
(** The highest acknowledged operation (-1 if none ever). *)

val buffered_bytes : t -> int
(** The buffer's charge against [buffer_budget]: per segment, each
    run's term name and record bytes plus 16 bytes per document. *)

val buffered_docs : t -> int

val segments : t -> (int * int * int) list
(** Sealed segments oldest first: [(tier, documents, bytes)]. *)

type stats = {
  docs_absorbed : int;
  deletes_absorbed : int;
  overloads : int;
  seals : int;
  folds : int;
  folded_docs : int;
  folded_bytes : int;  (** memory-segment bytes folded to disk *)
  wal_bytes : int;
  replayed_ops : int;  (** WAL records re-applied by {!open_} *)
}

val stats : t -> stats

val audit : t -> (string * string) list
(** [(where, problem)] pairs, empty when clean: the live index's own
    audit, the root frontier (a malformed one is a problem, not an
    exception) vs the serving frontier, tombstone
    pendingness, the union table against (disk ∪ memory) −
    tombstones, and every sealed segment's structure ({!Inquery.Postings.validate},
    ascending document ids). *)
