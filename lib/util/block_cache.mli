(** Bounded LRU of verified Mneme segment images: a facade over
    {!Lru}.

    High-df terms recur across queries (the paper's Figure 2 skew), so
    the segments holding their inverted lists are worth keeping.  A
    {e frame} holds one physical segment image, exactly as the Mneme
    store read it and after it passed its CRC32 check: a store that
    misses in its Table-2 buffer takes the segment from here instead of
    the file, and every record in that segment becomes a memory read.
    Readers decode postings from the record bytes; nothing decoded is
    cached, because the simulated clock prices I/O, not decoding.

    Frames are keyed by [(owner, segment id)]: the owner names one pool
    of one store session, so replicas of an image, or a compacted copy,
    never share a frame.  Each is charged its length plus a fixed
    48-byte overhead.  Frames rest on the store's invariant: {b a
    flushed segment id names one immutable image per store session} —
    allocation writes only the open segment or new ones, and the two
    paths that rewrite a flushed segment in place replace its frame.  A
    frame therefore needs no epoch in its key; it carries the epoch it
    was inserted under as a tag, so {!retain} lets the publication hook
    drop frames eagerly (keeping epochs still pinned by snapshot
    readers) and {!epochs} lets tests assert that no collected epoch is
    still represented.

    Recency, eviction and the counters are {!Lru}'s.  Like the buffer
    pool, a [t] is single-domain. *)

type t

val create : capacity_bytes:int -> t
(** [capacity_bytes] bounds the resident frames' charges; [0] disables
    the cache (probes miss, inserts drop).  Raises [Invalid_argument] if
    negative. *)

val find_frame : t -> owner:int -> seg:int -> bytes option
(** The segment image under [(owner, seg)], refreshed to most-recent.
    Counts one reference, plus a hit when resident.  The bytes are
    shared with every other reader of the frame: callers must not
    mutate them. *)

val frame_resident : t -> owner:int -> seg:int -> bool
(** Residency test; counts nothing and does not disturb recency. *)

val insert_frame : t -> owner:int -> seg:int -> epoch:int -> bytes -> unit
(** Insert (replacing any frame under the same key), tagged with
    [epoch], and evict from the cold end until the budget holds.  The
    cache keeps the bytes, not a copy: the caller hands over ownership
    and must insert only an image that passed its CRC check. *)

val retain : t -> keep:(int -> bool) -> int
(** [retain t ~keep] drops every frame whose epoch fails [keep],
    returning how many were dropped (counted as invalidations) — the
    epoch-publication/gc invalidation hook. *)

val epochs : t -> int list
(** Distinct epochs tagging resident frames, ascending. *)

val stats : t -> Cache_stats.t
(** References and hits are {!find_frame} probes; residency counts
    frames and their charged bytes. *)
