(** Redo-log journaling: atomic multi-write batches with crash recovery.

    The paper's Section 6: "The current version of Mneme is a prototype
    and does not provide all of the services one might expect from a
    mature data management system, such as concurrency control and
    transaction support. ... For future work we plan to implement some
    of the standard data management services not currently provided by
    Mneme and verify the above claim [that they] would not introduce
    excessive overhead."  This module is that service, and the ablation
    harness measures the claim.

    Protocol (write-ahead redo for overwrites, shadow paging for
    appends):
    - {!begin_batch} records the batch's {e boundary}: the data file's
      size, rounded up to the next multiple of the cost model's
      [block_size].  Bytes below it may be committed state; no block at
      or past it holds a committed byte;
    - during a batch, target-file writes are captured in the journal's
      pending table instead of reaching the data file; readers see them
      through {!read} (read-your-writes);
    - {!commit} splits every pending write at the boundary.  The part at
      or past it (copy-on-write extents) is written straight to the data
      file and {b fsynced before the commit point}; it is written once.
      Only the part below it — writes that overwrite committed bytes,
      such as a store header or an in-place segment repair, and new
      bytes that share the last committed block — goes into the log
      with a commit marker, and the {b log fsync} is the commit point.  Those writes are then applied to the data file, the data
      is {b fsynced}, and only then is the log truncated (checkpoint).
      A batch with nothing below the boundary writes no log record at
      all;
    - {!recover} scans the log: a complete batch bearing its commit
      marker is replayed (the apply phase may have been interrupted) and
      fsynced; an incomplete batch is discarded.  Either way the data
      file ends in a transaction-consistent state.

    {b Reader contract.}  Flushing past the boundary ahead of the commit
    point is safe only for a data file whose readers reach a byte past
    the committed end {e only} through bytes below it — an append-only
    allocator whose header names its tail, as {!Store} is.  A crash
    before the log fsync then leaves the new extents unreachable past
    the old tail, and the committed state is exactly the old one.
    Because the boundary is block-aligned, no pre-commit flush touches
    a block that holds a committed byte, so the argument does not rely
    on the device writing a block atomically.

    Log record: [off u64][len u32][bytes]; batch terminator:
    [0xffffffffffffff u64][CRC32 u32 over the serialised records].
    A torn tail (any truncation point) or a corrupted record (any bit
    flip) fails the CRC and is discarded. *)

type t

val create : Vfs.t -> log_file:string -> data_file:string -> t
(** Journal writes of [data_file] through [log_file].  The log file is
    created empty (or truncated if it exists). *)

val attach : Vfs.t -> log_file:string -> data_file:string -> t
(** Like {!create} but keeps any existing log contents, for {!recover}
    after a simulated crash. *)

val in_batch : t -> bool

val begin_batch : t -> unit
(** Open a batch and record its boundary.  Raises [Invalid_argument] if
    a batch is already open. *)

val write : t -> off:int -> bytes -> unit
(** Inside a batch: capture the write.  Outside a batch: write through
    to the data file directly. *)

val read : t -> off:int -> len:int -> bytes
(** Read through pending captured writes, falling back to the data
    file.  Raises like {!Vfs.read} when the range is outside both. *)

val data_size : t -> int
(** Data-file size as visible through pending writes. *)

val commit : t -> unit
(** Flush the writes at or past the boundary, then log, apply and
    checkpoint the writes below it.  Raises [Invalid_argument] if no
    batch is open. *)

val abort : t -> unit
(** Drop the pending writes; the data file is untouched. *)

type recovery = Replayed of int | Discarded of int | Clean

val recover : t -> recovery
(** Process the log after a crash: [Replayed n] re-applied [n] writes of
    a committed batch, [Discarded n] dropped [n] writes of an
    uncommitted one, [Clean] means the log was empty.  The log is
    truncated afterwards. *)

val pending_writes : t -> int
val log_bytes_written : t -> int
(** Total bytes ever appended to the log — the overhead metric.  Only
    writes below each batch's boundary count. *)

(** {2 Batch streaming}

    The hook a replica group needs: every committed batch is handed to
    subscribers as a sealed log image (records + commit marker + CRC32)
    of {e all} its writes — those flushed past the boundary as well as
    those logged below it — with its log sequence number, so standbys
    can replay the primary's history byte for byte. *)

val lsn : t -> int
(** Committed batches in this journal's lifetime (the log sequence
    number of the most recent commit; 0 before the first). *)

val on_commit : t -> (lsn:int -> bytes -> unit) -> unit
(** Subscribe to the commit stream.  The callback receives the sealed
    image of every write of every committed batch, immediately after
    the commit point and {e before} the apply phase — a primary that
    crashes while applying has already shipped the batch.  The image
    is in the log's format whether or not the batch wrote a log record
    (an append-only batch still ships).  Subscribers run in
    subscription order. *)

val log_file : t -> string
(** Name of the log file. *)

val data_file : t -> string
(** Name of the journaled data file. *)
