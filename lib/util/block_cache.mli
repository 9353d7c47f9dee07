(** Bounded LRU of postings records and their decoded blocks.

    High-df terms recur across queries (the paper's Figure 2 skew), so
    both forms of their inverted lists are worth keeping:

    - a {e record} entry holds the whole record as fetched from the
      store: a hit hands back the bytes and skips the fetch — replica
      routing, the object store, its buffer pools and the file system;
    - a {e block} entry holds one decoded block's [(docs, tfs)] arrays:
      a hit skips the decode.

    Records are keyed by [(locator, epoch)], blocks by
    [(source object id, block index, epoch)] where the source id is the
    record's locator.  Both rest on one invariant: {b within one epoch,
    a locator names exactly one immutable store object}, so equal keys
    always name equal bytes.  The epoch tag makes entries from
    superseded index versions unreachable the moment a new epoch is
    probed, and {!retain} lets the publication hook drop them eagerly
    (keeping epochs still pinned by snapshot readers, whose objects are
    immutable and therefore still byte-correct).

    The cache never returns an entry for a key it was not given: a
    reader serving a pinned epoch and a reader serving the latest epoch
    share the cache without ever seeing each other's entries, which is
    what keeps pinned-epoch rankings bit-identical under churn.

    Records and blocks share one byte budget and one recency order, so
    a record insert can evict a cold block and vice versa.  Their
    counters are kept apart ({!stats} and {!record_stats}).

    Like the buffer pool, a [t] is single-domain; give each worker its
    own and {!Cache_stats.merge} the counters. *)

type t

val create : ?capacity_bytes:int -> name:string -> unit -> t
(** [capacity_bytes] (default 1 MiB) bounds the resident records and
    decoded blocks together; [0] disables the cache (probes miss,
    inserts drop).  Raises [Invalid_argument] if negative. *)

val name : t -> string
val capacity : t -> int

(** {2 Decoded blocks} *)

val find : t -> src:int -> blk:int -> epoch:int -> (int array * int array) option
(** The decoded [(docs, tfs)] arrays, refreshed to most-recent.  Counts
    one block reference, plus a hit when resident.  Callers must not
    mutate the returned arrays.  Raises [Invalid_argument] if [blk] is
    negative. *)

val insert : t -> src:int -> blk:int -> epoch:int -> docs:int array -> tfs:int array -> unit
(** Insert (replacing any entry under the same key), charged 8 bytes
    per array element plus a fixed overhead, and evict from the cold
    end until the budget holds.  Raises [Invalid_argument] if [blk] is
    negative. *)

(** {2 Whole records} *)

val find_record : t -> locator:int -> epoch:int -> bytes option
(** The record fetched under [(locator, epoch)], refreshed to
    most-recent.  Counts one record reference, plus a hit when
    resident.  The bytes are shared with every other reader of the
    entry: callers must not mutate them. *)

val insert_record : t -> locator:int -> epoch:int -> bytes -> unit
(** Insert (replacing any entry under the same key), charged the
    record's length plus the same fixed overhead as a block, and evict
    from the cold end until the budget holds.  The cache keeps the
    bytes, not a copy: the caller hands over ownership.  Raises
    [Invalid_argument] if [locator] is negative (such records have no
    stable name). *)

(** {2 Invalidation and statistics} *)

val retain : t -> keep:(int -> bool) -> int
(** [retain t ~keep] drops every entry, record or block, whose epoch
    fails [keep], returning how many were dropped (counted as
    invalidations) — the epoch-publication/gc invalidation hook. *)

val clear : t -> unit
(** Drop everything (counted as invalidations); statistics are kept. *)

val epochs : t -> int list
(** Distinct epochs with resident entries of either kind, ascending —
    lets tests assert that no collected epoch is still represented. *)

val stats : t -> Cache_stats.t
(** Decoded blocks only: references and hits are block probes, and
    evictions, invalidations and residency count block entries —
    whichever insert made the room. *)

val record_stats : t -> Cache_stats.t
(** The same counters for record entries. *)

val reset_stats : t -> unit
(** Zero the counters of both kinds; residency is kept. *)
