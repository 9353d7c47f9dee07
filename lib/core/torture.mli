(** Fault-injection torture (ALICE / CrashMonkey style), as data.

    Seven families audit the durability and coherence claims the
    reproduction adds: the journaled store, replica failover, bit-rot
    scrub and repair, epoch publication, online ingestion, sharded
    serving and the read-path caches.  Each runs a deterministic workload
    with faults injected and audits every outcome against an oracle; each
    returns the same {!report}.

    Five of them are {e crash families}: the store, failover, epoch and
    ingest workloads and scrub's crash-during-repair.  One driver runs
    them all.  The golden run executes the workload under
    {!Vfs.Fault.none} to count its physical I/Os — the crash points — and
    record what a never-crashed run observes.  Replay [k] arms
    {!Vfs.Fault.crash_at_io}[ k], runs the workload until {!Vfs.Crash},
    takes {!Vfs.crash_image} (what a reboot finds) and hands it to the
    family's oracle. *)

(** {1 The report} *)

type report = {
  family : string;  (** "store", "failover", "scrub", "epoch", "ingest", "shard", "cache" *)
  points : int;
      (** Fault points enumerated: crash points for a crash family,
          rotted segments for scrub, member serving I/Os for shard,
          published mutations for cache. *)
  counts : (string * int) list;
      (** The family's census, in a fixed order.  A crash family's first
          two counts split its points: images that recovered to a served
          state, then images that legitimately held nothing. *)
  problems : (int * string) list;
      (** [(point, violation)] in the order found.  Point 0 is the
          fault-free part of the run (the golden run, shard's clean probe,
          the cache audit phase); shard keys its problems by replay.
          Scrub keys them by segment, a repair crash point prefixed
          ["heal io k: "]. *)
}

val ok : report -> bool
(** No problems.  Every family files each failed check as a problem, so
    this is the only verdict. *)

val json : report -> string
(** The report as one JSON object (family, points, counts, problems),
    indented to sit one level inside an enclosing object.  Every string
    is escaped by {!Util.Tables.json_string}. *)

(** {1 Crash families} *)

type crash
(** A crash family: a workload plus the oracle that audits each crash
    image against the golden run. *)

val store : ?seed:int -> ?docs:int -> ?update_batches:int -> unit -> crash
(** A journaled build of [docs] objects (default 12, seed 42), then
    [update_batches] (default 3) transactions that modify, delete and
    allocate objects, each ending in a finalize and bumping a persisted
    generation counter.  After journal recovery the store must open
    (unless no commit ever completed), its generation [g] must satisfy
    [completed - 1 <= g <= started - 1], it must pass {!Mneme.Check.run}
    and hold exactly generation [g]'s objects, byte for byte.  Census:
    opened, unopenable, then the recovery verdicts replayed, discarded
    and clean.  Raises [Invalid_argument] on negative counts. *)

val failover : ?seed:int -> ?docs:int -> ?batches:int -> ?standbys:int -> unit -> crash
(** An incremental index build of [docs] documents (default 12) in
    [batches] (default 3) journal transactions shipped to [standbys]
    (default 2) replicas, the query set run after every commit.  The
    crash kills the primary's device; the most caught-up healthy standby
    is promoted and must hold an applied LSN in [completed, started],
    open, pass fsck, hold byte-for-byte its generation's records, and
    rank every query byte-identically to the golden run at that
    generation.  Census: promoted, empty.  Raises [Invalid_argument] on
    non-positive counts. *)

val epoch : ?seed:int -> ?docs:int -> unit -> crash
(** A journaled {!Live_index} over [docs] documents (default 8) with
    deletions interleaved; every mutation publishes an epoch through one
    sealed root switch, and the directory, record bytes and query set
    are observed after each.  The golden run ends with a pin/gc phase:
    pinned readers (epochs 1, 5, 9, ...) must rank bit-identically after
    later mutations and a gc under the pins, and the final gc must
    retain and strand nothing.  Every recovered root must be wholly the
    old epoch or wholly the new one — document count, directory, records
    and rankings identical to the golden view — fsck-clean before and
    after a gc that drains every stranded byte.  Census: opened,
    unopenable, wholly_old, wholly_new, replayed, discarded, clean,
    epochs, reclaimed (objects the golden gc passes freed).  Raises
    [Invalid_argument] on a non-positive [docs]. *)

val ingest : ?seed:int -> ?docs:int -> unit -> crash
(** An {!Ingest} index under [docs] (default 8) WAL-acknowledged
    additions with deletions and budgeted merge steps interleaved, the
    union observed after every operation, then drained one fold at a
    time and put through the same pin/gc phase as {!epoch}.  Every
    recovery must hold each acknowledged document exactly once: the
    frontier inside the acknowledged window, the document table and
    rankings byte-identical to the golden union at that frontier, a pin
    on it ranking the same; the merge must then resume and drain, cut
    the WAL and leave nothing stranded.  Census: opened, unopenable,
    wholly_old, wholly_new, replayed, discarded, clean, operations,
    acked, folds, redelivered (WAL records recovery re-applied),
    reclaimed.  Raises [Invalid_argument] on a non-positive [docs]. *)

val scrub_repair :
  ?seed:int -> ?docs:int -> ?batches:int -> ?standbys:int -> segment:int -> unit -> crash
(** Scrub's crash-during-repair for one segment: the {!scrub} scenario
    with [segment] rotted is the starting point, and the workload is its
    heal, crashed on the primary's device.  After journal recovery the
    survivors converge as plain peers and must pass {!audit_scenario}'s
    checks.  Census: opened, unopenable (the rebooted primary). *)

type plan
(** A crash family's golden run. *)

val prepare : crash -> plan
(** Run the workload to completion under {!Vfs.Fault.none}, count the
    crash points and audit the golden trace. *)

val points : plan -> int
(** Physical I/Os the golden run performed: one crash point each. *)

val table : plan -> (string * int) list list
(** The golden run's timeline as rows of named columns: per epoch
    [epoch; documents; terms] for {!epoch}, per operation [op;
    acked_seq; folds; documents] for {!ingest}, empty for the rest. *)

val golden_problems : plan -> string list
(** Violations the golden run's own audit found ([] = clean). *)

val pinned_consolidations : plan -> int
(** Chunks the golden run's publications retired while a held pin still
    read them, each by consolidating a full chain
    ({!Live_index.max_chunks} chunks) into one record ({!epoch} and
    {!ingest}; 0 for the rest).  The golden audit
    requires the gc under the pins to keep every one of them and the gc
    after their release to reclaim them all. *)

val replay : plan -> int -> string list
(** Replay with a crash at physical I/O [k], hand the crash image to the
    oracle, and return the violations at that point.  Raises
    [Invalid_argument] outside [1 .. points plan]. *)

val sweep : plan -> report
(** Replay every crash point.  The golden run's problems come first, at
    point 0. *)

(** {1 Scrub}

    The bit-rot sweep that proves the self-healing loop.  The failover
    workload is run to completion with a replica group attached; then,
    for every flushed physical segment, a bit is flipped inside one
    member's on-disk copy (round-robin across the primary and the
    standbys) and the detect-to-repair loop must close: a group scrub
    ({!Mneme.Scrub}) finds exactly that segment on exactly that member,
    one {!Mneme.Replica.heal_segment} repairs it from a peer's verified
    copy, a second scrub finds nothing, and {!audit_scenario} passes.
    The repair is then swept as a {!scrub_repair} crash family. *)

val scrub : ?seed:int -> ?docs:int -> ?batches:int -> ?standbys:int -> unit -> report
(** The full sweep (defaults: seed 42, 12 documents, 3 batches, 2
    standbys).  Points are segments; census: members, heals,
    repair_points (crash-during-repair replays).  Raises
    [Invalid_argument] on non-positive counts. *)

type scrub_scenario
(** A completed replicated workload plus its golden expectations: the
    open primary store and replica group, the full physical-segment
    census, and the rankings every audit must reproduce. *)

val build_scrub_scenario :
  ?seed:int -> ?docs:int -> ?batches:int -> ?standbys:int -> unit -> scrub_scenario
(** Defaults: seed 42, 12 documents, 3 batches, 2 standbys.  Raises
    [Invalid_argument] on non-positive counts. *)

val scenario_segments : scrub_scenario -> int
(** Flushed physical segments across all pools (scrub walk order). *)

val scenario_member_names : scrub_scenario -> string list
(** ["primary"] followed by the standby names in attach order. *)

val scenario_rot :
  scrub_scenario -> member:string -> segment:int -> ?bits:int -> seed:int -> unit -> unit
(** Flip [bits] (default 1) distinct bits inside [member]'s on-disk copy
    of segment number [segment] (an index into the walk order), damaging
    both the OS view and the durable image.  Raises [Invalid_argument]
    on an unknown member or out-of-range segment. *)

val scrub_group : scrub_scenario -> (string * Mneme.Scrub.damage) list
(** Scrub every member's copy fresh from its own disk and return the
    combined worklist as [(member, damage)] pairs, members in attach
    order. *)

val heal_group : scrub_scenario -> int * string list
(** Scrub-and-heal to fixpoint through {!Mneme.Replica.heal_segment}:
    returns the number of heals applied and any failures (an empty list
    means the group reached a clean fixpoint within 3 rounds). *)

val audit_scenario : scrub_scenario -> string list
(** The convergence audit: fsck every member, demand byte-identical data
    files, golden rankings and an empty quarantine.  Returns the
    violations ([] = converged). *)

type sweep_row = {
  sw_budget : int;  (** max bytes verified per scrub step *)
  sw_steps : int;  (** steps until the damage was detected *)
  sw_detect_ms : float;  (** simulated ms of scrub work to detection *)
  sw_stall_ms : float;  (** longest single step: worst foreground wait *)
  sw_heal_ms : float;
  sw_query_ms : float;  (** mean foreground query latency between steps *)
}

val scrub_budget_sweep :
  ?seed:int ->
  ?docs:int ->
  ?batches:int ->
  ?standbys:int ->
  budgets:int list ->
  unit ->
  sweep_row list
(** The scrub-tax experiment: rot the last segment of the walk on the
    primary, then detect and heal it under each per-step byte budget,
    running a foreground query between steps.  Small budgets detect
    slowly but never hold the disk long; large ones detect fast at the
    price of a long worst-case stall.  Raises [Invalid_argument] on a
    non-positive budget. *)

(** {1 Shard}

    The fault-at-every-I/O discipline pointed at scatter-gather serving
    over two shards of two replicas, top 10.  An unsharded golden index
    gives the full above-baseline ranking per query (the restriction
    oracle); a clean coordinator ({!Shard.create}) is probed to learn
    every replica's serving-phase physical I/O count; then the scatter
    is replayed with one member crashed ({!Vfs.Fault.crash_at_io}),
    stalled ({!Vfs.Fault.stall_at_io}) or bit-flipped
    ({!Vfs.Fault.flip_bit_on_read}) at each of those I/Os — plus, per
    shard, a {e blackout} (every replica dead, exercising
    retry-with-backoff and shedding) and a {e brownout} (every replica
    slowed below the hedge threshold under a deadline).  Full-coverage
    results must be bit-identical to the unsharded index, partial ones
    exactly its ranking restricted to the answered shards' doc ranges (a
    deviation is a {e silent truncation}), and the deadline may be
    overshot by at most the one fetch in flight plus one clean run's CPU. *)

val shard : ?seed:int -> ?docs:int -> unit -> report
(** Defaults: seed 42, 24 documents.  Points are member serving I/Os;
    census: shards, members, replays, full, partial, overshoots,
    truncations.  Raises [Invalid_argument] on fewer documents than
    shards. *)

(** {1 Cache}

    Coherence under churn: a journaled live index under 18 add/delete
    mutations (seed 42), with a query-result cache and a block cache
    riding the publication hook ({!Live_index.on_publish}) the way a
    serving frontend would.  The block cache is the store's frame cache
    ({!Mneme.Store.set_frames}) over transient buffers, so a segment read
    twice comes from its frame.  At every published epoch:

    - every result-cache hit must equal the uncached latest-view
      ranking, and every entry filled at an epoch must hit for the rest
      of that epoch;
    - every pinned epoch, read through the frames while later mutations
      and a gc run under the pins, must hand back exactly the bytes a
      frames-off read of the same pin returns;
    - after gc, no cache holds an entry tagged with a collected epoch;
    - both invalidation mechanisms fire — the publication hook's eager
      drop and the probe-time epoch-mismatch purge (results get a
      one-epoch grace window so the latter has stale entries to catch) —
      and the run hits each tier at least once. *)

val cache : unit -> report
(** Points are published mutations (problems keyed by mutation, 0 = the
    audit phase); census: comparisons, result_hits, frame_hits,
    invalidations. *)
