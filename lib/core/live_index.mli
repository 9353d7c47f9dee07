(** Dynamic inverted-file maintenance — the extension the paper leaves
    as future work.

    "In the INQUERY system ... document collections are currently viewed
    as archival and modification is considered a rare event.  Therefore,
    addition or deletion of a single document ... is not directly
    supported and requires the entire document collection to be
    re-indexed."

    A live index supports exactly that: incremental document addition
    and deletion over either storage backend, plus search, with the
    collection statistics (document count, lengths, per-term df/cf) kept
    consistent.  The costs the paper worries about become observable:

    - {b addition} under the B-tree obtains the inverted list of every
      term in the new document and re-stores it with the entry merged
      in; the old extent is freed and may be recycled.  Under Mneme the
      index is {e copy-on-write} (see below) and a term's record is a
      {e chain} of immutable chunks: an addition stores the term's new
      postings as one more chunk, and reads nothing.
    - {b two kinds of chunk}: a chunk of at most 12 bytes
      ({!Partition.default}'s [small_max], the payload of the paper's
      small-pool slot, fixed for the format) is stored {e inline}, in its term's entry
      of the sealed root, and is never allocated as an object; a larger
      one is a Mneme object in the size class of its own bytes.  The
      rule covers every chunk a fold, a consolidation or a deletion
      writes; the records a wrapped store adopted stay objects, whatever
      their size.
    - {b consolidation}: a chain holds at most {!max_chunks} chunks.  An
      addition to a full chain writes the chain and the new postings as
      one record instead, inline or in the size class that record now
      belongs to (inline → medium → large), and retires every chunk.  What a
      fold writes stays proportional to the change, and a read walks a
      bounded chain.
    - {b deletion} must visit {e every} inverted list, since there is no
      forward index — the paper's "holes in the inverted lists", here
      actually punched and measured.  Each touched term is rewritten
      whole, as one record.

    {b A read equals a rewrite.}  Every chunk is a canonical postings
    record, and a chain's document ranges are disjoint and ascending, so
    {!Inquery.Postings.concat} over the chain is byte for byte the
    record a rewrite would have stored: {!term_record}, {!record},
    rankings and {!audit} see no chunking at all.  Object chunks are
    ordinary Mneme objects named by the sealed root, and inline chunks
    are bytes of the root's own parts, so fsck, scrub and {!gc} need no
    new object kind.  An inline chunk is read from the snapshot that
    names it: no store read, no frame and no I/O.

    {b Snapshot isolation (Mneme backend).}  Writers never overwrite or
    free a live object.  Every mutation allocates new objects for the
    records it touches, then publishes a new {e epoch}: a sealed root
    object ({!Mneme.Epoch.seal}) is written and the store header switched
    to it.  A chunk is never modified, so a pinned epoch's chains stay
    readable, unchanged, after any number of later appends and
    consolidations.

    {b The root is a chain of parts.}  The object directory — each
    term's chunk oids, df/cf, document lengths, next-doc, the total
    length and the metadata — is the fold of a chain of 1 to
    {!max_chunks} immutable sealed parts, oldest first, and the header
    names the newest.  The oldest, the {e base}, holds the whole
    directory.  Every later part, a {e delta}, holds only what its own
    publication changed: each term whose chunks, df or cf changed, as an
    {e extension} listing only the chunks appended to its chain since
    the part before, or, when the term is new, consolidated or
    rewritten, as a whole entry; a tombstone for a removed term; the
    documents added and removed; next-doc, the total length and the
    metadata as absolute values; and the oids of the parts before it.
    So a publication writes what it changed, not the whole directory,
    and an inline chunk is written by the part that introduces it and
    again only when a base is sealed.  A
    publication that would make a fifth part seals a fresh base instead
    and retires every part of the old chain — the rule a full chunk
    chain follows.  A base goes to the pool of its own size class, a
    delta to its base's.  Every part is some earlier epoch's sealed root, so
    the chain adds no object kind: the census, {!gc} and fsck treat a
    part like an object chunk, and the inline chunks a part carries live
    and die with it.  With a journal enabled
    ([?journal]), the COW writes, the sealed root and the header switch
    ride {e one} transaction whose CRC-sealed commit record is the
    single commit point: a crash recovers to wholly the old epoch or
    wholly the new one, never a torn mix ({!Core.Torture.epoch}
    enumerates every crash point and proves it).  Readers {!pin} an epoch and {!rank}
    over its {!pinned} view with bit-identical rankings no matter how
    much mutation follows; {!gc} reclaims stale objects only when no
    pin can reach them.

    {b One write path, one read path.}  {!fold_batch} is the only
    mutation: {!add_document} and {!delete_document} are one-document
    batches.  {!rank} over a {!view} is the only ranking: {!search} is
    [rank] over {!latest}, and {!Ingest} ranks its disk ∪ memory union
    through the same function. *)

type t

val wrap_btree :
  ?stopwords:Inquery.Stopwords.t ->
  ?stem:bool ->
  Vfs.t ->
  tree:Btree.t ->
  dict:Inquery.Dictionary.t ->
  doc_lengths:(int * int) list ->
  t
(** Adopt an existing B-tree index.  [doc_lengths] carries the indexed
    length of each existing document. *)

val wrap_mneme :
  ?stopwords:Inquery.Stopwords.t ->
  ?stem:bool ->
  Vfs.t ->
  store:Mneme.Store.t ->
  dict:Inquery.Dictionary.t ->
  doc_lengths:(int * int) list ->
  t
(** Adopt a built Mneme store.  Pools "small", "medium" and "large"
    must exist and have buffers attached; their capacities stay as the
    caller set them.  Raises [Not_found] if a pool is missing.  Every
    object already in the store is treated as live in the current
    epoch, and each record the dictionary locates is a one-chunk chain
    of an object chunk, whatever its size (the locators are not read
    again); sizes of pre-existing objects are
    not censused, so GC byte
    accounting covers only objects written through this live index
    ({!gc} reads a pre-existing object's size from the store, so
    {!Mneme.Store.wasted_bytes} stays exact).  Raises
    [Invalid_argument] if the store has a published root: reopen such a
    store with {!open_mneme}. *)

val create_btree :
  ?stopwords:Inquery.Stopwords.t -> ?stem:bool -> Vfs.t -> file:string -> unit -> t
(** An empty live index on a fresh B-tree file. *)

val create_mneme :
  ?stopwords:Inquery.Stopwords.t ->
  ?stem:bool ->
  ?buffers:Buffer_sizing.t ->
  ?journal:string ->
  Vfs.t ->
  file:string ->
  unit ->
  t
(** An empty live index on a fresh Mneme store with the three standard
    pools.  Without [buffers], each pool's buffer is sized to the
    published epoch: at every publication (and on {!open_mneme} and
    {!compact}) its capacity becomes the summed length of the flushed
    segments that hold an object chunk the new directory names — the
    chunks the next fold consolidates and searches read — and every other
    resident segment is dropped unless a reader has it pinned.  The
    root's parts are not counted.  An explicit [buffers] keeps fixed
    capacities instead.
    With [?journal] the store's writes go through a redo journal in that
    log file and every mutation commits — objects, sealed root, header —
    as one atomic epoch publication; reopen after a crash with
    {!open_mneme}. *)

val open_mneme :
  ?stopwords:Inquery.Stopwords.t ->
  ?stem:bool ->
  ?buffers:Buffer_sizing.t ->
  ?journal:string ->
  Vfs.t ->
  file:string ->
  unit ->
  t
(** Re-open a live index from its published root: run journal recovery
    (when [?journal] is given), read the root chain the header names,
    and rebuild the dictionary, chains, document lengths and epoch
    manager from the directory its parts give; every part of the chain
    and every chunk the directory names is live.
    Objects the root does not name — orphans of
    epochs that never committed or were superseded — are censused as
    stale and reclaimed by the next {!gc}.  [buffers] is as for
    {!create_mneme}: without it the pools are sized to the reopened
    epoch.  Raises
    [Mneme.Store.Corrupt] if no root was ever published, if a part's
    envelope is missing or torn, if the root's disagrees with the
    header, or if the chain is not in its one canonical form.  Within a
    part: front-coded terms in strictly ascending order, 1 to
    {!max_chunks} chunks per entry (0 for a tombstone), inline chunks of
    1 to 12 bytes that {!Inquery.Postings.validate} accepts, whose
    documents ascend across the chain's inline chunks, ascending
    document ids, no
    trailing bytes, no entry equal to the one the earlier parts give,
    no whole entry whose chain extends theirs, no tombstone for a term
    they lack, no added document they hold and no removed one they
    lack, and extensions only in a delta, of a term the earlier parts
    give, by at least one chunk and to at most {!max_chunks}.  Across the chain:
    at most {!max_chunks} parts, the root's own oid not among them, each
    part's own part list the chain before it, part epochs strictly
    ascending, and no oid named twice across the parts and the object
    chunks of the directory they give, nor a chunk oid equal to the
    root's.  An opened root therefore never hands the query path an
    inline record it cannot decode. *)

val backend_name : t -> string
(** "btree" or "mneme". *)

val add_document : t -> ?doc_id:int -> string -> int
(** Index one document and return its id (fresh ids are assigned past
    the largest seen): {!tokenize}, then a one-document {!fold_batch}.
    Under Mneme this publishes a new epoch.  Raises [Invalid_argument]
    if an explicit id is not beyond every existing id. *)

val delete_document : t -> int -> bool
(** Remove a document from every inverted list it appears in; returns
    whether it existed.  An existing document's deletion is a
    {!fold_batch} with that one deletion, so under Mneme it publishes a
    new epoch (a no-op deletion does not). *)

val tokenize : t -> string -> (string * int list) list * int
(** Run one document's text through the index's lexer, stopword and
    stemming configuration without touching the index: per-term
    ascending position lists in first-occurrence order, plus the
    indexed length — exactly the contribution {!add_document} would
    apply.  {!Ingest} buffers this. *)

val fold_batch :
  t ->
  ?meta:(string * string) list ->
  docs:(int * int) list ->
  postings:(string * bytes) list ->
  deletes:int list ->
  unit ->
  unit
(** The only mutation: apply a whole batch — new documents with their
    postings, then deletions — so under a journaled Mneme backend the
    entire batch commits as a single epoch publication (the ingestion
    merge's crash-atomic commit point).  [docs] carries
    [(doc, indexed_length)] for every new document.  [postings]
    carries, per (already-normalised) term, one canonical record of the
    term's new documents: {!Inquery.Postings.encode} or
    {!Inquery.Postings.concat} output holding at least one document,
    every one past the documents already stored for the term.  Under
    Mneme it is stored as is, as the term's next chunk (or consolidated
    with a full chain), and the term's df and cf grow by the record's
    header statistics.
    [deletes] names documents to remove (absent ones are skipped),
    removed in one sweep of every inverted list, however many there
    are; each touched term is rewritten whole.  [meta] upserts opaque
    key/value pairs carried verbatim in
    every sealed root from this epoch on (e.g. the ingestion WAL
    frontier).  Raises [Invalid_argument] if a [docs] id is already
    present. *)

val meta : t -> (string * string) list
(** The metadata pairs riding the latest view, sorted by key ([] until
    a {!fold_batch} sets some). *)

val normalise_term : t -> string -> string option
(** The index's stopword/stemming pipeline for one raw term: [None] if
    stopped. *)

val doc_lengths : t -> (int * int) list
(** [(doc, indexed_length)] for every live document, sorted. *)

val next_doc : t -> int
(** The next document id a fresh {!add_document} would take. *)

val document_count : t -> int
val contains_document : t -> int -> bool
val avg_doc_length : t -> float

val term_record : t -> string -> bytes option
(** The current inverted record for a term, after the index's stopword
    and stemming pass: {!record} of {!latest}.  Read-only: a one-chunk
    inline record is the snapshot's own bytes. *)

(** {2 Views and ranking} *)

type view = {
  chunks : string -> bytes list;
      (** an {e already-normalised} term's postings as stored, oldest
          first — no stopword or stemming pass, unlike {!term_record}
          (stemming is not idempotent): postings records whose
          documents ascend across the list; [[]] if the view holds none.
          Read-only: inline chunks are the snapshot's own bytes *)
  keep : (int -> bool) option;
      (** the documents of [chunks] the view holds; [None] when it holds
          every one *)
  doc_len : int -> int option;
      (** a document's indexed length; [None] marks a document outside
          the view *)
  n_docs : int;  (** documents in the view *)
  total_len : int;  (** their summed indexed lengths *)
  next_doc : int;  (** one past the largest document id ever assigned *)
}
(** Everything a ranking reads: one version of the collection, each
    term's stored postings and its collection statistics. *)

val record : view -> string -> bytes option
(** A term's record in the view, [Inquery.Postings.concat ?keep chunks]:
    each chunk decoded once and the record encoded once, byte for byte
    what an index holding just the view's documents would store, its
    header df and cf the view's; with no [keep], a lone chunk already
    in its layout is returned as is.  [None] if no document of the term
    remains.  The only code that assembles a view's record. *)

val latest : t -> view
(** The live state: the in-memory dictionary and document table, which
    under Mneme equal the latest published epoch.  Its [keep] is
    [None]: a stored record holds only documents of the index. *)

val rank : ?top_k:int -> t -> view -> string -> Inquery.Ranking.ranked list
(** Parse a query, read each distinct normalised query term's {!record}
    once, in order of first occurrence and before evaluation starts,
    evaluate term-at-a-time ({!Inquery.Infnet.eval}), which scores with
    each record's header df, over the view's collection statistics, mask
    every document outside the view, and keep the [top_k] (default 10).
    [t] supplies the stopword and stemming configuration.  Raises
    [Invalid_argument] on syntax errors. *)

val search : ?top_k:int -> t -> string -> Inquery.Ranking.ranked list
(** [rank ?top_k t (latest t)]. *)

(** {2 Snapshot isolation (Mneme backend)}

    All of the following raise [Invalid_argument] on a B-tree backend,
    except {!epoch} which returns 0. *)

type pin
(** A reader's claim on one published epoch: the epoch's object
    directory, captured immutably.  Release exactly once. *)

val epoch : t -> int
(** The latest published epoch (0 before any mutation). *)

val on_publish : t -> (epoch:int -> unit) -> unit
(** Register a hook to run after every epoch publication, with the new
    epoch, once the new root is installed and the handle serves it —
    the invalidation point for anything caching under epoch tags
    ({!Result_cache}, {!Util.Block_cache}): a hook typically calls
    [retain ~keep:(fun e -> e = epoch || pinned e)].  Hooks run in
    registration order; {!Ingest} batches publish through the same path
    and fire them too.  Mneme backend only — B-tree mutations publish
    no epochs, so hooks never fire there. *)

val pin : t -> pin
(** Pin the latest published epoch for reading. *)

val release : t -> pin -> unit
(** Drop the claim; objects only this pin kept alive become
    reclaimable.  Raises [Invalid_argument] on double release. *)

val pinned : t -> pin -> view
(** The pinned epoch: every chunk and every collection statistic comes
    from the pinned snapshot, through locators the pin keeps alive, so
    {!rank} over it is bit-identical to what {!search} returned when
    that epoch was current — no matter how many mutations have been
    published since.  Its [keep] is [None]. *)

val pinned_epochs : t -> int list
(** Currently pinned epochs, ascending, with multiplicity ([] on
    B-tree). *)

val pin_directory : pin -> (string * int * int) list
(** [(term, df, cf)] as the pinned epoch's root recorded them, sorted
    by term. *)

val gc : t -> Mneme.Epoch.gc_stats
(** Reclaim every stale object — retired by a later epoch, or orphaned
    by a crash — that no pinned epoch can reach ({!Mneme.Store.delete},
    folding the bytes into {!Mneme.Store.wasted_bytes} for {!compact}
    to drop).  Sizes come from the epoch manager, so reclaiming reads
    no segment, except for objects {!wrap_mneme} adopted unsized.
    Journaled: the deletes commit as one transaction. *)

val stranded_bytes : t -> int
(** Bytes held by stale-but-unreclaimed objects (0 on B-tree).  Returns
    to zero after a {!gc} with no pins outstanding. *)

val mneme_store : t -> Mneme.Store.t option
(** The underlying store, for integrity checking ({!Mneme.Check}). *)

val max_chunks : int
(** The bound on a term's chunk chain (4): a fold that finds a chain
    this long consolidates it with the new postings into one record. *)

val root_parts : t -> int list
(** The published root as its chain of parts, base first: the header
    names the last ([] before the first publication and on B-tree). *)

type chunk =
  | Object of int  (** a Mneme object, by oid *)
  | Inline of string  (** a record of at most 12 bytes *)
(** One chunk of a term's chain, as the root names it. *)

val chains : t -> (string * chunk list) list
(** [(term, chunks oldest first)] for every term of the latest
    {e published} directory, sorted by term ([] on B-tree). *)

val directory : t -> (string * int * int) list
(** [(term, df, cf)] for every term with a live record, sorted by term
    — on Mneme, read from the latest {e published} snapshot. *)

val audit : t -> (string * string) list
(** Statistics-drift audit, [(where, problem)] pairs, empty when clean:
    deep-validates every chunk, inline ones included, and every record and cross-checks df/cf
    against the dictionary ({!Catalog.verify_records}), checks the
    aggregate length/count invariants, and — on Mneme — verifies every
    chain holds 1 to {!max_chunks} chunks, the published snapshot
    agrees exactly with the live chains, dictionary and document
    table, and the root chain on disk decodes to that snapshot. *)

val flush : t -> unit
(** Persist backend metadata (B-tree header / Mneme finalize; journaled
    Mneme commits the finalize as a transaction). *)

val compact : t -> file:string -> unit
(** Mneme backend only: run {!gc}, then rewrite the store into [file],
    reclaiming every byte stranded by retirements and deletions, and
    switch the live index to the compacted store (object ids — and
    therefore the dictionary locators and pinned snapshots — are
    preserved; objects kept alive by pins are carried over).  Buffer
    capacities carry over, and pools sized to the epoch are re-sized to
    the compacted segments.  Raises [Invalid_argument] on a B-tree
    backend or a journaled store. *)

type space = { file_bytes : int; reclaimable_bytes : int }

val space : t -> space
(** File size and the backend's recyclable byte count — for Mneme, the
    store's stranded extents {e plus} stale-but-uncollected epoch
    objects ({!stranded_bytes}) — the update micro-study's metric. *)
