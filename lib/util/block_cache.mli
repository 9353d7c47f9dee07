(** Bounded LRU of verified Mneme segment images and decoded postings
    blocks.

    High-df terms recur across queries (the paper's Figure 2 skew), so
    two forms of their inverted lists are worth keeping:

    - a {e frame} holds one physical segment image, exactly as the
      Mneme store read it and after it passed its CRC32 check: a store
      that misses in its Table-2 buffer takes the segment from here
      instead of the file, and every record in that segment becomes a
      memory read;
    - a {e block} holds one decoded block's [(docs, tfs)] arrays: a hit
      skips the decode.

    Blocks are keyed by [(source object id, block index, epoch)], where
    the source id is the record's locator.  They rest on one invariant:
    {b within one epoch, a locator names exactly one immutable store
    object}, so equal keys always name equal arrays.

    Frames are keyed by [(owner, segment id)]: the owner names one pool
    of one store session, so replicas of an image, or a compacted copy,
    never share a frame.  They rest on the store's invariant: {b a
    flushed segment id names one immutable image per store session} —
    allocation writes only the open segment or new ones, and the two
    paths that rewrite a flushed segment in place replace its frame.  A
    frame therefore needs no epoch in its key; it carries the epoch it
    was inserted under as a tag, so {!retain} and {!epochs} treat both
    kinds alike.

    The epoch makes blocks of superseded index versions unreachable the
    moment a new epoch is probed, and {!retain} lets the publication
    hook drop entries of either kind eagerly (keeping epochs still
    pinned by snapshot readers, whose objects are immutable and
    therefore still byte-correct).  The cache never returns a block for
    a key it was not given: a reader serving a pinned epoch and a reader
    serving the latest epoch share the cache without ever seeing each
    other's blocks, which is what keeps pinned-epoch rankings
    bit-identical under churn.

    Frames and blocks share one byte budget and one recency order, so a
    frame insert can evict a cold block and vice versa.  Their counters
    are kept apart ({!stats} and {!frame_stats}).

    Like the buffer pool, a [t] is single-domain; give each worker its
    own and {!Cache_stats.merge} the counters. *)

type t

val create : ?capacity_bytes:int -> name:string -> unit -> t
(** [capacity_bytes] (default 1 MiB) bounds the resident frames and
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

(** {2 Segment frames} *)

val find_frame : t -> owner:int -> seg:int -> bytes option
(** The segment image under [(owner, seg)], refreshed to most-recent.
    Counts one frame reference, plus a hit when resident.  The bytes
    are shared with every other reader of the frame: callers must not
    mutate them. *)

val frame_resident : t -> owner:int -> seg:int -> bool
(** Residency test; counts nothing and does not disturb recency. *)

val insert_frame : t -> owner:int -> seg:int -> epoch:int -> bytes -> unit
(** Insert (replacing any frame under the same key), tagged with
    [epoch], charged the image's length plus the same fixed overhead as
    a block, and evict from the cold end until the budget holds.  The
    cache keeps the bytes, not a copy: the caller hands over ownership
    and must insert only an image that passed its CRC check. *)

(** {2 Invalidation and statistics} *)

val retain : t -> keep:(int -> bool) -> int
(** [retain t ~keep] drops every entry, frame or block, whose epoch
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

val frame_stats : t -> Cache_stats.t
(** The same counters for frames. *)

val reset_stats : t -> unit
(** Zero the counters of both kinds; residency is kept. *)
