(** Inverted list records.

    One record per term: a header of summary statistics followed by, for
    each document containing the term, the document id, the
    within-document frequency, and the term's positions — "a vector of
    integers in a compressed format" (delta + v-byte coding, which is
    where INQUERY's ~60 % compression came from).

    Two record layouts exist, picked by document count; every integer
    in both is v-byte coded:

    {b v1} (below {!v1_cutoff_df} documents; also what {!encode_v1}
    writes at any size):
    [df] [cf] then per document (ascending id):
    [doc gap] [tf] [tf position gaps].

    {b v2} (skip blocks; from {!v1_cutoff_df} documents on):
    a [0x80 0x02] version sentinel, then
    [df] [cf] [max_tf] [n_blocks] [skip_len], a skip table with one
    entry per {!block_size}-document block
    ([last-doc delta] [doc-region bytes] [position-region bytes]),
    then [doc_len], the doc region of per-document [doc gap] [tf]
    pairs, and the position region of per-document position gaps.
    Document-level scans never touch position bytes, and
    {!cursor_seek} jumps whole blocks via the skip table.  {!validate}
    checks the sentinel against the document count and every block's
    byte counts against the skip table, so any single flipped bit in
    the skip table or the doc region is flagged.

    The first byte of a v1 record codes [df]; the v1 encoder only starts
    a record with [0x80] (v-byte zero) for the empty record
    [0x80 0x80], so the [0x80 0x02] sentinel is unambiguous and
    {!version} can sniff reliably. *)

type doc_postings = { doc : int; positions : int list }
(** Positions are ascending token indexes; [tf] is their length. *)

val block_size : int
(** Documents per skip block (128). *)

val v1_cutoff_df : int
(** Records with fewer documents than this are emitted in the v1 layout:
    at that size the v2 header would dominate the record and break the
    paper's small-object distribution, and skipping cannot pay.  Readers
    sniff, so the cutoff never matters on the way in. *)

type tier =
  | V1  (** interleaved layout *)
  | Raw
      (** Retired: a v2 doc region of fixed u32le (gap, tf) pairs
          (sentinel [0x80 0x03]).  Nothing writes it and {!tier} never
          returns it; the constructor stays while a census outside
          this library still names it. *)
  | Vbyte  (** v2, v-byte doc region *)
  | Cold
      (** Retired: a v2 doc region of per-block bit-packed gaps and tfs
          (sentinel [0x80 0x04]); never returned, as {!Raw}. *)

val tier : bytes -> tier
(** Sniffed from the sentinel bytes: {!Vbyte} or {!V1}. *)

val tier_of_df : int -> tier
(** The layout the encoder assigns a record of the given document count
    — what {!encode}, {!Builder.finish} and {!concat} emit, and what
    {!validate} requires of the sentinel. *)

val tier_name : tier -> string
(** ["v1"], ["raw"], ["vbyte"] or ["cold"] — census labels. *)

val version : bytes -> int
(** [1] or [2], sniffed from the record's leading bytes. *)

val encode : (int * int list) list -> bytes
(** [encode entries] builds a record from [(doc, positions)] pairs
    with strictly ascending doc ids and, per doc, strictly ascending
    positions (each doc must have at least one position) — v2 once the
    document count reaches {!v1_cutoff_df}, compact v1 below it.  Raises [Invalid_argument] on
    violations. *)

val encode_v1 : (int * int list) list -> bytes
(** The legacy encoder, kept verbatim for backward-compatibility tests
    and for exercising the v1 read paths. *)

module Builder : sig
  (** Streaming v2 encoder: the indexer feeds one document at a time
      instead of materialising the [(doc, positions)] list. *)

  type t

  val create : unit -> t

  val add : t -> doc:int -> positions:int list -> unit
  (** Same ascending-id/ascending-position contract as {!encode}. *)

  val finish : t -> bytes
end

val stats : bytes -> int * int
(** [(df, cf)] from the header. *)

type record_stats = {
  rs_tier : tier;
  rs_df : int;
  rs_cf : int;
  rs_max_tf : int option;  (** [None] on v1 records (no header slot). *)
  rs_blocks : int;  (** Skip blocks; [0] on v1 (no skip table). *)
  rs_doc_bytes : int;
      (** Doc-region bytes a full document scan decodes.  On v1 the
          whole payload (positions are interleaved and cannot be
          skipped), on v2 the doc region alone. *)
  rs_pos_bytes : int;  (** Position-region bytes; [0] on v1. *)
}
(** The per-record inputs to the query planner's cost model. *)

val record_stats : bytes -> record_stats
(** Parses the header and (on v2) the varint-coded region lengths only
    — never the doc or position regions — so asking costs O(1) parsing
    regardless of df.  The planner estimates each candidate plan's
    decode bytes from these without paying any decode itself. *)

val max_tf : bytes -> int option
(** Largest within-document frequency in the record — the input to a
    term's belief upper bound.  [None] for v1 records (no header slot). *)

val skip_table_region : bytes -> (int * int) option
(** [(offset, length)] of the skip table's bytes within the record;
    [None] for v1.  Exposed so corruption tests can aim at it. *)

val doc_region : bytes -> (int * int) option
(** [(offset, length)] of the doc region, the v-byte (gap, tf) pairs;
    [None] for v1.  Exposed so corruption tests can aim at it. *)

val fold_docs : bytes -> init:'a -> f:('a -> doc:int -> tf:int -> 'a) -> 'a
(** Fold over documents.  On v2 records position bytes are never
    visited; on v1 the gaps are still scanned byte-wise, as INQUERY
    must. *)

val fold_positions : bytes -> init:'a -> f:('a -> doc_postings -> 'a) -> 'a
(** Fold with full position lists (phrase evaluation). *)

val decode : bytes -> doc_postings list

val doc_count : bytes -> int
(** Same as [fst (stats b)]. *)

val concat : ?keep:(int -> bool) -> bytes list -> bytes option
(** [concat ?keep records] is the one record holding every document of
    [records], in order, less those [keep] rejects: the union of a
    term's stored chunks, its buffered runs, or a record with deleted
    documents dropped.  The inputs' documents must be strictly
    ascending across the whole list, so their ranges are disjoint and
    in order.  Each input is decoded once and the result encoded once,
    in the layout of its own document count ({!tier_of_df}): it is
    byte-identical to {!encode} of the inputs' decoded entries.  A lone
    input with no [keep], already in its document count's layout, is
    returned as is — the same bytes, when it is itself {!encode}
    output.  [None] when no document remains.
    Accepts either layout.  Raises [Invalid_argument] on a document at or
    below the one before it, kept or not. *)

val validate : bytes -> (unit, string) result
(** Deep structural check, for fsck: headers, skip-table invariants
    (strictly ascending last-doc ids, block byte counts that tile the
    regions and stay inside the record), strictly ascending doc ids and
    positions in both layouts, tf/cf/max_tf consistency, and the
    sentinel-vs-df agreement.  A record it accepts decodes, walks,
    {!concat}s and reports {!record_stats} without raising.  Reports
    the first problem; never raises. *)

(** {2 Cursors}

    Stateful forward iteration over a record's (doc, tf) pairs, with
    skip-table-accelerated {!cursor_seek} on v2 records (v1 cursors seek
    by scanning).  Used by the document-at-a-time evaluators.

    v2 cursors decode one whole {!block_size}-document block at a time
    into arrays: {!cursor_decoded} therefore counts in block-sized
    steps, and a block jumped clean over by {!cursor_seek} is never
    decoded at all.  Every cursor decodes its blocks from the record
    bytes it was opened on; nothing decoded outlives the cursor. *)

type cursor

val cursor : bytes -> cursor
(** Positioned on the first posting ({!cur_doc} is [max_int] if the
    record is empty). *)

val cur_doc : cursor -> int
(** Current document id, [max_int] once exhausted. *)

val cur_tf : cursor -> int
(** Current within-document frequency (meaningless once exhausted). *)

val cursor_df : cursor -> int

val cursor_next : cursor -> unit
(** Advance to the next posting. *)

val cursor_seek : cursor -> int -> unit
(** [cursor_seek c target] advances until [cur_doc c >= target]
    (possibly to exhaustion), jumping whole blocks via the skip table
    when possible.  No-op if already there. *)

val cursor_decoded : cursor -> int
(** Postings decoded by this cursor so far (whole blocks on v2). *)

val cursor_blocks_skipped : cursor -> int
(** Whole blocks jumped over without decoding. *)

val cursor_seeks : cursor -> int
(** Number of forward {!cursor_seek} calls that had to move. *)

val cursor_blocks_loaded : cursor -> int
(** Blocks decoded by this cursor; [0] on v1 records.  The planner's
    estimated-vs-actual block counter. *)

val cursor_bytes_read : cursor -> int
(** Record bytes this cursor actually decoded: doc-region bytes of every
    decoded block (v1: all bytes stepped over) plus position bytes
    walked by {!cursor_positions}.  The planner's estimated-vs-actual
    byte counter. *)

val cursor_positions : cursor -> int list
(** The current document's ascending positions — identical to what
    {!fold_positions} reports for this document.  On v2 records the
    block's position slice is walked lazily and forward-only (preceding
    runs skipped via the decoded tfs), so positions cost nothing until
    asked for and an ascending intersection pays only for co-occurring
    documents.  Raises [Invalid_argument] if the cursor is exhausted. *)
