(** The Mneme persistent object store.

    Basic services: storage and retrieval of {e objects} — chunks of
    contiguous bytes with unique identifiers.  Mneme has no notion of
    type or class; object format is the business of the pool that owns
    the object.  Objects are grouped physically into segments (the disk
    transfer unit) and logically into 255-object logical segments;
    location goes through compact auxiliary tables that stay cached
    after their first access, which is why a warm Mneme lookup costs
    about one file access (the paper's A ~ 1.02-1.07 without caching).

    Lifecycle: [create] (or [open_existing]) → [add_pool] for each
    policy → [attach_buffer] → [allocate]/[get]/[modify]/[delete] →
    [finalize] to persist the auxiliary tables.  A finalized file
    re-opened with [open_existing] loads its auxiliary tables lazily, on
    the first access to each pool — charging the simulated I/O exactly
    once, as the paper describes.

    {b Domain-safety contract.}  A store session — the [t], its pools,
    their attached {!Buffer_pool}s and the underlying {!Vfs} — is
    single-domain: nothing here is internally synchronised, and even a
    "read-only" [get] mutates session state (auxiliary-table caches,
    buffer recency lists, the simulated clock).  Concurrent serving
    therefore uses one {e session per domain}, each opened with
    [open_existing] over that domain's own copy of the finalized
    (read-only) file image; sessions never share mutable state, so the
    postings hot path carries no lock.  {!Core.Parallel} is the
    reference implementation of this pattern. *)

type t
type pool

exception Corrupt of string
(** Raised when the file contents contradict the format. *)

val create : Vfs.t -> string -> t
(** Fresh store in a new file.  Raises [Invalid_argument] if the file
    exists. *)

val open_existing : Vfs.t -> string -> t
(** Re-open a finalized store.  Raises [Corrupt] on format errors. *)

val add_pool : t -> Policy.t -> pool
(** Register a pool.  On a re-opened store, a pool with the same policy
    name recovers its persisted contents.  Raises [Invalid_argument] if
    the name is already taken by a live pool handle. *)

val pool : t -> string -> pool
(** Look up a registered pool by name.  Raises [Not_found]. *)

val pool_name : pool -> string
val pool_policy : pool -> Policy.t

val attach_buffer : pool -> Buffer_pool.t -> unit
(** Attach the buffer the pool will fault segments through.  A pool must
    have a buffer attached before [get]/[modify]/[delete] touch it.
    Replacing the buffer is allowed (used by the buffer-size sweep). *)

val buffer : pool -> Buffer_pool.t option

val allocate : pool -> bytes -> Oid.t
(** Store a new object, returning its id.  Raises [Invalid_argument] if
    the object exceeds a fixed-slot pool's payload bound, and [Failure]
    if the 28-bit id space is exhausted. *)

val get : t -> Oid.t -> bytes
(** Retrieve an object's bytes, as a fresh copy the caller owns (a
    cache may keep it).  Raises [Not_found] if the id was never
    allocated or was deleted, and [Corrupt] if the object's physical
    segment fails its CRC32 when faulted from disk — corrupted data is
    never silently returned. *)

val get_opt : t -> Oid.t -> bytes option

(** {2 Segment frames}

    A serving session can share a {!Util.Block_cache} with its
    frontend, which then holds whole physical segments — {e frames} —
    in the frontend's byte budget, beside decoded postings blocks.  A
    fault that misses the pool's buffer takes the segment from its
    frame when one is resident, and reads the file otherwise.  A
    segment read from the file becomes a frame only after it passes its
    CRC32 check.  Frames are keyed by this session's pool and the
    segment id, and tagged with {!epoch} at insertion.

    {b Invariant.}  A flushed segment id names one immutable image per
    store session: allocation writes only the open segment or new
    segments, never a flushed one.  The two paths that do rewrite a
    flushed segment in place — {!modify} within an extent and
    {!repair_segment} — replace a resident frame, as they refresh the
    buffered copy.  A frame therefore matches the segment on disk for
    as long as it is resident, whichever epoch is being served.  Like
    the session, the cache is single-domain. *)

val set_frames : t -> Util.Block_cache.t option -> unit
(** Attach ([Some]) or detach ([None]) the frame cache.  Frames outlive
    a detach: re-attach only if no segment was rewritten meanwhile. *)

val fetch_resident : t -> Oid.t -> bytes option
(** The object's bytes, as {!get_opt} returns them, when they can be
    had without I/O: from the open segment, the buffered copy or a
    frame (counted as {!get_opt} counts them).  [None], with nothing
    counted, when the segment is not resident, and also when the owning
    pool's auxiliary tables are not loaded yet, since loading them is a
    charged read.  Never touches the file and costs no simulated time. *)

val exists : t -> Oid.t -> bool
(** Consults only the (cached) auxiliary tables — no segment fault. *)

val object_size : t -> Oid.t -> int option
(** Size from the segment directory; faults the segment like [get]. *)

val modify : t -> Oid.t -> bytes -> unit
(** Replace an object's contents in place when the new value fits the
    old extent (the segment's buffered copy and resident frame are
    replaced by the patched image); otherwise the object is relocated
    to fresh segment space (the old space is wasted — see
    [wasted_bytes]).  Fixed-slot objects may grow up to the slot
    payload.  Raises [Not_found] or [Invalid_argument] like
    [allocate]. *)

val delete : t -> Oid.t -> unit
(** Drop the object.  Raises [Not_found] if absent. *)

val reserve : t -> Oid.t list -> (unit -> unit)
(** The paper's query-tree reservation: pin the segments of every
    listed object that is {e already resident} in its pool's buffer,
    and return a release function to call when the query completes. *)

val finalize : t -> unit
(** Flush open creation segments, persist the auxiliary tables and
    header.  Idempotent; must be called before [open_existing] can see
    the data. *)

val vfs : t -> Vfs.t
(** The file system this store lives in. *)

val file_name : t -> string
(** Name of the store's data file. *)

val file_size : t -> int
val object_count : t -> int
val pool_object_count : pool -> int
val wasted_bytes : t -> int
(** Bytes stranded by relocations and deletions — the paper's
    "space management problem" made measurable. *)

val aux_table_bytes : t -> int
(** Size of the persisted auxiliary tables (0 before finalize); compare
    with the paper's footnote that all of TIPSTER's tables fit 512 KB. *)

(** {2 The versioned root}

    One object per store may be designated the {e root}: the sealed
    object directory of the latest published epoch (see {!Epoch}).  The
    header records the epoch number and the root's oid; both persist
    with the next {!finalize}, so inside a {!transact} the root switch
    commits atomically with the objects it names — the journal's commit
    marker is the only commit point.  Stores written before epochs
    existed read back as epoch 0 with no root. *)

val epoch : t -> int
(** Latest published epoch recorded in the header (0 = never
    published). *)

val root : t -> Oid.t option
(** The sealed root object of [epoch], if one was published. *)

val set_root : t -> epoch:int -> root:Oid.t option -> unit
(** Record the new epoch and root in the in-memory header; call
    {!finalize} (inside the publishing transaction) to persist them.
    {!compact} carries both across, since object ids are preserved.
    Raises [Invalid_argument] on a negative epoch or oid. *)

val locate_pseg : t -> Oid.t -> int option
(** Physical segment id holding the object, if any — exposed so the
    integrated system can reserve and so tests can assert clustering. *)

val pool_of_oid : t -> Oid.t -> pool option

(** {2 Transactions and recovery}

    The data management services the paper lists as future work
    ("recovery ... transaction support"), provided by a redo journal
    ({!Journal}).  With a journal enabled, updates grouped under
    {!transact} reach the data file atomically: after a crash,
    {!recover_journal} replays a committed batch or discards an
    uncommitted one, so the store is always transaction-consistent.

    The store meets the journal's reader contract, so each new byte is
    written once, not logged and then copied: it allocates only by
    advancing its data tail, and reaches every object through the
    header, then the auxiliary tables, then the segments.  New segments
    and tables therefore land past the committed end, where nothing
    durable names them until the header switch — a write below the
    journal's boundary, and so logged — commits.  Only the header,
    in-place rewrites ({!modify} within an extent, {!repair_segment})
    and new bytes that share the last committed block go through the
    log.

    The ablation harness measures the overhead (the paper's conjecture:
    "we expect that the addition of these services would not introduce
    excessive overhead"). *)

val enable_journal : t -> log_file:string -> unit
(** Route this store's data-file writes through a redo journal kept in
    [log_file].  Raises [Invalid_argument] if already enabled. *)

val journal : t -> Journal.t option

val transact : t -> (unit -> 'a) -> 'a
(** [transact t f] runs [f] with all store writes captured, then commits
    them atomically.  If [f] raises, the batch is aborted (the data file
    is untouched) and the exception re-raised — in that case the
    {e in-memory} handle may have advanced past the on-disk state
    (allocation counters, segment tables), so discard it and re-open
    the store, exactly as a crashed process would.  Raises
    [Invalid_argument] if no journal is enabled. *)

val recover_journal : Vfs.t -> file:string -> log_file:string -> Journal.recovery
(** Run crash recovery for a store file and its journal log before
    re-opening the store.  After {!Journal.recover}, if the file holds a
    finalized header and runs past the data tail it names, the file is
    truncated to that tail: a crash before a batch's commit point
    leaves its already-flushed extents there, unreachable.  The
    truncation is a metadata operation — durable at once, and a second
    recovery finds nothing to cut. *)

(** {2 Introspection}

    Read-only access to the location tables and segment formats, for
    the integrity checker ({!Check}) and tests. *)

val pools : t -> pool list
(** Registered pools, in registration order (forces aux loading). *)

val pool_segments : pool -> (int * (int * int)) list
(** [(pseg id, (file offset, length))] for every flushed physical
    segment, ascending by id. *)

val segment_crc : pool -> int -> int option
(** CRC32 recorded for a flushed physical segment (computed when the
    segment was written; verified on every fault from disk, so a
    corrupted segment raises [Corrupt] instead of returning garbage).
    [None] while the segment is still open in memory. *)

val verify_segment_crc : pool -> int -> bool
(** Re-read the segment from the file — bypassing any buffered copy —
    and check it against the recorded CRC32.  [true] for a segment that
    has no on-disk image yet. *)

val repair_segment : pool -> pseg:int -> bytes -> (unit, string) result
(** [repair_segment pool ~pseg replacement] rewrites a flushed physical
    segment in place from a known-good copy of its bytes.  The
    replacement must match the segment's recorded length {e and} CRC32
    exactly — [Error], with nothing written, otherwise: a repair is only
    a repair if the result is byte-identical to what was originally
    written.  With a journal enabled the rewrite commits as its own
    transaction (unless a batch is already open, in which case it rides
    that batch), so a crash mid-heal recovers to either the damaged or
    the healed image, never a torn mix — and the rewrite ships to any
    attached replica group like any other commit.  Without a journal the
    segment is written and fsynced directly.  Any buffered copy and any
    resident frame are refreshed.  [Error] for a segment with no
    on-disk image. *)

val pool_slot_tables : pool -> (int * int array) list
(** [(lseg, slots)] pairs, ascending by lseg; each slot holds the
    physical segment id or -1.  The arrays are copies. *)

val segment_raw : pool -> int -> bytes
(** Fault a physical segment through the pool's buffer and return its
    bytes.  Raises [Corrupt] for an unknown id and [Invalid_argument]
    if no buffer is attached. *)

val parse_packed_directory : bytes -> (Oid.t * int * int) list
(** Directory of a packed segment: [(oid, offset, length)] entries.
    Raises [Corrupt] on a malformed directory. *)

val fixed_slot_length : slot_size:int -> bytes -> slot:int -> int option
(** Payload length stored in a fixed-layout segment slot, or [None] if
    the slot is empty.  Raises [Corrupt] if the slot lies outside the
    segment. *)

val compact : t -> file:string -> t
(** [compact t ~file] rewrites the store into a fresh file, dropping
    every stranded extent left by relocations and deletions (the
    "holes" the paper worries about).  Object ids are preserved — the
    hash-dictionary locators remain valid against the compacted store —
    and [wasted_bytes] of the result is 0.  The source must be
    finalized ([Invalid_argument] otherwise) and needs buffers attached
    (objects are read through them); attach buffers to the result's
    pools before querying it. *)
