(** Store integrity checking (fsck for Mneme files).

    Walks a finalized store's auxiliary tables and physical segments and
    cross-checks every invariant the format promises:

    - each pool's segment directory entries lie inside the file and do
      not overlap each other;
    - every logical-segment slot points at a physical segment that
      exists and actually contains that object id (packed layout) or a
      populated slot (fixed layout);
    - segment directories are well-formed (extents inside the segment,
      no overlaps);
    - every flushed segment's on-disk bytes match the CRC32 recorded
      when the segment was written (read fresh from the file, so a
      clean buffered copy cannot mask on-disk corruption);
    - per-pool object counts match the live slot counts, and their sum
      matches the store header.

    Damage is {e reported, never raised}: a truncated file (segment
    extents past EOF), overlapping directory entries, or a corrupted
    segment all become problems in the report — fsck must survive
    anything the disk can do to the file.

    Used by tests, and available to applications as a recovery-time
    sanity pass (e.g. after {!Store.recover_journal}). *)

type problem = { where : string; what : string }

type report = {
  problems : problem list;
  objects_seen : int;
  psegs_seen : int;
  pools_seen : int;
}

val ok : report -> bool
(** No problems found. *)

val run : ?object_check:(bytes -> (unit, string) result) -> Store.t -> report
(** Check a store (pools load lazily as needed; buffers must be
    attached to the pools since segments are faulted for inspection).

    [object_check], when given, is applied to every live object's
    payload bytes — the hook for format-aware validation the store
    itself cannot do (e.g. {!Inquery.Postings.validate} checking
    skip-table invariants of inverted-list records).  An [Error] from
    the checker, an exception it raises, or an unreadable payload each
    become a report problem; fsck still never raises.  An object that
    carries the sealed-root envelope ({!Epoch.is_sealed}) — the latest
    epoch's root, or a pinned epoch's that outlived a gc — is not
    handed to the checker: it is flagged unless it {!Epoch.unseal}s. *)

val pp_report : Format.formatter -> report -> unit
