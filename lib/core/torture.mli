(** Crash-point torture harness (ALICE / CrashMonkey style).

    A deterministic journaled workload — an index build, then update
    batches that modify, delete and allocate objects, each batch ending
    in a finalize and bumping a persisted generation counter — is first
    run to completion under a counting fault plan to learn how many
    physical I/Os it performs and what a perfect store holds after each
    commit.  Then the workload is replayed once per I/O with
    {!Vfs.Fault.crash_at_io} pointed at that I/O: the simulated machine
    loses power there, {!Vfs.crash_image} reconstructs what a reboot
    would find, {!Mneme.Store.recover_journal} runs, and the recovered
    store is audited:

    - it must open (unless {e no} commit ever completed — before that
      the file legitimately holds nothing durable);
    - the persisted generation [g] must satisfy
      [completed - 1 <= g <= started - 1] — a commit the workload saw
      finish is never rolled back, and nothing past the last started
      commit can appear;
    - {!Mneme.Check.run} must pass (including the segment CRC32 pass);
    - the store must hold exactly the objects of generation [g]'s
      snapshot, byte for byte.

    Every deviation is reported as a problem tied to its crash point;
    a correct journal yields an empty problem list. *)

val file : string
(** Store file name used by the workload ("torture.mneme"). *)

val log_file : string
(** Journal log file name ("torture.log"). *)

type plan
(** A completed golden run: crash-point count plus per-generation
    expected contents. *)

val prepare : ?seed:int -> ?docs:int -> ?update_batches:int -> unit -> plan
(** Run the workload to completion (defaults: seed 42, 12 documents,
    3 update batches) and collect the golden snapshots. *)

val crash_points : plan -> int
(** Number of physical I/Os the workload performs — one crash point
    each. *)

type point_report = {
  crash_at : int;
  recovery : Mneme.Journal.recovery;
  opened : bool;  (** the crash image opened as a store *)
  problems : string list;  (** invariant violations; [] = consistent *)
}

val run_point : plan -> int -> point_report
(** Replay the workload crashing at the given I/O (1-based), recover,
    audit.  Raises [Invalid_argument] outside [1 .. crash_points]. *)

type outcome = {
  crash_points : int;
  opened : int;
  unopenable : int;  (** crash images from before the first commit *)
  replayed : int;
  discarded : int;
  clean : int;  (** recovery verdicts across all points *)
  problems : (int * string) list;  (** (crash point, violation) *)
}

val run : ?seed:int -> ?docs:int -> ?update_batches:int -> unit -> outcome
(** Enumerate every crash point.  [problems = []] means the store
    survived a crash at every single I/O of the workload. *)

val pp_outcome : Format.formatter -> outcome -> unit

(** {2 The shared fault-at-every-I/O sweep}

    Every torture family follows the same loop: enumerate the golden
    run's physical I/Os, replay the scenario once per point with a fault
    armed at that I/O, tally the replay, and collect its problems tagged
    with the point.  These two helpers are that loop, factored out so
    the store, failover, scrub, epoch, ingest and shard sweeps share
    one copy. *)

val sweep_points :
  ?seed_problems:string list -> points:int -> (int -> string list) -> (int * string) list
(** [sweep_points ~points replay] calls [replay k] for [k = 1 ..
    points]; each returned problem is tagged [(k, problem)].
    [seed_problems] — golden-run audit violations — come back first,
    tagged with point 0. *)

val tally_recovery :
  replayed:int ref -> discarded:int ref -> clean:int ref -> Mneme.Journal.recovery -> unit
(** Bump the counter matching the journal-recovery verdict — the census
    every store-level sweep reports. *)

(** {2 Failover torture}

    The same discipline pointed at replication.  A deterministic
    {e journal-shipping} workload — an incremental index build whose
    update batches allocate, grow and migrate term records inside
    journal transactions, with a {!Mneme.Replica} group attached and a
    fixed query set run after every commit — is first run to completion
    to learn its physical I/O count on the primary device and to record,
    per committed generation: the expected store contents, the catalog,
    and the ranked results of every query.  Then the workload is
    replayed once per I/O with the primary's device dying at that I/O.
    The most caught-up healthy standby is promoted and audited:

    - its applied LSN must lie in [completed, started] — no committed
      batch lost, nothing uncommitted applied;
    - the promoted store must open and pass {!Mneme.Check.run};
    - it must hold byte-for-byte the record set of its generation;
    - every query must return {e byte-identical ranked results} to the
      golden run at that generation. *)

val failover_file : string
(** Store file name used by the workload ("failover.mneme"). *)

val failover_log : string
(** Journal log file name ("failover.log"). *)

type failover_plan

val prepare_failover :
  ?seed:int -> ?docs:int -> ?batches:int -> ?standbys:int -> unit -> failover_plan
(** Golden run (defaults: seed 42, 12 documents, 3 batches, 2
    standbys).  Raises [Invalid_argument] on non-positive counts. *)

val failover_points : failover_plan -> int
(** Physical I/Os the workload performs on the primary device. *)

type failover_report = {
  crash_at : int;
  survivor : string;  (** promoted standby; "none" before attach *)
  applied_lsn : int;  (** -1 when there was nothing to promote *)
  problems : string list;  (** invariant violations; [] = consistent *)
}

val run_failover_point : failover_plan -> int -> failover_report
(** Replay, crash the primary at the given I/O (1-based), promote,
    audit.  Raises [Invalid_argument] outside [1 .. failover_points]. *)

type failover_outcome = {
  points : int;
  promoted : int;  (** crash points that yielded a survivor *)
  empty : int;  (** crashes before any commit: survivor legitimately empty *)
  problems : (int * string) list;  (** (crash point, violation) *)
}

val run_failover :
  ?seed:int -> ?docs:int -> ?batches:int -> ?standbys:int -> unit -> failover_outcome
(** Enumerate every crash point.  [problems = []] means a standby
    served the committed prefix byte-identically no matter where the
    primary died. *)

val pp_failover_outcome : Format.formatter -> failover_outcome -> unit

(** {2 Scrub torture}

    The bit-rot sweep that proves the self-healing loop.  The failover
    workload is run to completion with a replica group attached; then,
    for {e every} flushed physical segment, bits are flipped inside one
    member's on-disk copy of that segment (round-robin across the
    primary and the standbys) and the detect-to-repair loop must close:

    - a group scrub ({!Mneme.Scrub}) finds exactly the damaged segment
      on exactly the damaged member;
    - one {!Mneme.Replica.heal_segment} repairs it from a peer's
      verified copy — and, being a journaled rewrite on the primary,
      converges every standby too;
    - a second scrub finds nothing, every member passes
      {!Mneme.Check.run}, every data file is byte-identical, and a fresh
      engine returns the golden ranked results with {e zero} quarantined
      terms;
    - additionally ([crash_sweep]), the repair itself is crashed at
      every one of its primary-device I/Os; after reboot through journal
      recovery the surviving copies must still converge to the same
      clean group. *)

type scrub_scenario
(** A completed replicated workload plus its golden expectations: the
    open primary store and replica group, the full physical-segment
    census, and the ranked results every audit must reproduce. *)

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
    files, golden ranked results and an empty quarantine.  Returns the
    violations ([] = converged). *)

type scrub_outcome = {
  sc_segments : int;
  sc_members : int;
  sc_healed : int;  (** heals applied across the sweep *)
  sc_crash_points : int;  (** crash-during-repair replays exercised *)
  sc_problems : (int * string) list;  (** (segment index, violation) *)
}

val scrub_ok : scrub_outcome -> bool

val run_scrub :
  ?seed:int ->
  ?docs:int ->
  ?batches:int ->
  ?standbys:int ->
  ?bits:int ->
  ?crash_sweep:bool ->
  unit ->
  scrub_outcome
(** The full sweep (defaults: seed 42, 12 documents, 3 batches, 2
    standbys, 1 bit per rot, crash sweep on).  [sc_problems = []] means
    every segment of every member healed back to a byte-identical,
    query-identical group — no matter where the repair was crashed. *)

val pp_scrub_outcome : Format.formatter -> scrub_outcome -> unit

type sweep_row = {
  sw_budget : int;  (** max bytes verified per scrub step *)
  sw_steps : int;  (** steps until the damage was detected *)
  sw_detect_ms : float;  (** simulated ms of scrub work to detection *)
  sw_stall_ms : float;  (** longest single step: worst foreground wait *)
  sw_heal_ms : float;
  sw_query_ms : float;  (** mean foreground query latency between steps *)
}

val scrub_budget_sweep :
  ?seed:int -> ?docs:int -> ?batches:int -> ?standbys:int -> budgets:int list -> unit -> sweep_row list
(** The scrub-tax experiment: rot the last segment of the walk on the
    primary, then detect and heal it under each per-step byte budget,
    running a foreground query between steps.  Small budgets detect
    slowly but never hold the disk long; large ones detect fast at the
    price of a long worst-case stall.  Raises [Invalid_argument] on a
    non-positive budget. *)

(** {2 Epoch torture}

    Crash-point enumeration for snapshot-isolated serving.  The
    workload drives a journaled {!Live_index} over a synthetic
    collection, interleaving document additions and deletions — every
    mutation publishes an epoch through one sealed root switch — and
    observing the directory, record bytes and a fixed ranked query set
    after each publication (the observation I/O is part of the
    deterministic sequence, so replays stay aligned).  A golden run
    under {!Vfs.Fault.none} records the view at every epoch, pins a
    spread of epochs, and audits the gc discipline; every replay
    crashes at one physical I/O, reboots on the durable image, recovers
    the journal, and demands:

    - {b (a)} the recovered store is fsck-clean, before and after gc;
    - {b (b)} the surviving root is wholly the old epoch or wholly the
      new one — directory, records, document count and rankings all
      byte-identical to the golden view of that epoch, never a mix;
    - {b (c)} gc drains every stranded byte the interrupted epoch left
      behind, and a reader pinned in the golden run ranks
      bit-identically no matter how much mutation (and gc) followed. *)

type epoch_plan

val prepare_epoch : ?seed:int -> ?docs:int -> unit -> epoch_plan
(** Golden run (defaults: seed 42, 8 documents — roughly [4/3 · docs]
    epoch publications).  Counts the crash points, snapshots every
    epoch's view, and audits pinned readers and gc; violations found in
    the golden run itself are reported by {!run_epoch} as crash point
    0.  Raises [Invalid_argument] on a non-positive [docs]. *)

val epoch_points : epoch_plan -> int
(** Physical I/Os in the golden run — the number of crash points. *)

val epoch_mutations : epoch_plan -> int
(** Epochs the golden run published. *)

type epoch_report = {
  crash_at : int;
  recovery : Mneme.Journal.recovery;
  opened : bool;
  published : int;  (** epochs the replay saw commit before the crash *)
  recovered_epoch : int;  (** -1 when unopenable *)
  problems : string list;
}

val run_epoch_point : epoch_plan -> int -> epoch_report
(** Replay with a crash at physical I/O [k] (1-based), recover, audit.
    An unopenable image is only a problem if the replay had seen at
    least one publication commit.  Raises [Invalid_argument] if [k] is
    outside [1..epoch_points]. *)

type epoch_outcome = {
  e_points : int;
  e_mutations : int;
  e_opened : int;
  e_unopenable : int;
  e_wholly_old : int;  (** recovered to the last epoch the replay saw commit *)
  e_wholly_new : int;  (** the log fsync sealed the interrupted epoch *)
  e_replayed : int;
  e_discarded : int;
  e_clean : int;
  e_reclaimed : int;  (** objects the golden run's gc passes freed *)
  e_problems : (int * string) list;  (** crash point 0 = golden-run audit *)
}

val run_epoch : ?seed:int -> ?docs:int -> unit -> epoch_outcome
(** Enumerate every crash point.  [e_problems = []] means every crash
    recovered to a whole epoch with a clean store, every pinned reader
    ranked bit-identically, and gc drained every stranded byte. *)

val pp_epoch_outcome : Format.formatter -> epoch_outcome -> unit

val epoch_table : epoch_plan -> (int * int * int) list
(** The golden run per epoch: [(epoch, documents, live terms)] — the
    view each published root seals. *)

val epoch_golden_problems : epoch_plan -> string list
(** Violations the golden run's own pin/gc audit found ([] = clean). *)

(** {2 Ingest torture}

    Crash-point enumeration for online ingestion.  The workload drives
    an {!Ingest} index over a synthetic collection — WAL-acknowledged
    additions and deletions interleaved with budgeted merge steps —
    observing the union's document table and a fixed ranked query set
    after every operation (the observation I/O is part of the
    deterministic sequence, so replays stay aligned), then drains the
    merge one budgeted fold at a time.  A golden run under
    {!Vfs.Fault.none} records the union at every acknowledged frontier
    and audits pins, gc and the drain; every replay crashes at one
    physical I/O, reboots on the durable image, recovers with
    {!Ingest.open_}, and demands:

    - {b (a)} the recovered store is fsck-clean, before and after the
      drain and gc;
    - {b (b)} exactly-once durability: the recovered frontier sits
      inside the acknowledged window, and the union's document table
      and rankings are byte-identical to the golden run at that
      frontier — every acknowledged document present exactly once, an
      unacknowledged one absent or wholly present, never lost or
      doubled;
    - {b (c)} a reader pinned on the recovered union ranks
      bit-identically to the golden union at that frontier;
    - {b (d)} the merge resumes and drains: the buffer empties, the
      frontier reaches the last acknowledged operation, rankings do
      not move, the WAL is truncated, and gc leaves nothing
      stranded. *)

type ingest_plan

val prepare_ingest : ?seed:int -> ?docs:int -> unit -> ingest_plan
(** Golden run (defaults: seed 42, 8 documents).  Counts the crash
    points, snapshots the union after every operation, indexes the
    observations by acknowledged frontier, and audits pinned readers,
    the drain and gc; violations found in the golden run itself are
    reported by {!run_ingest} as crash point 0.  Raises
    [Invalid_argument] on a non-positive [docs]. *)

val ingest_points : ingest_plan -> int
(** Physical I/Os in the golden run — the number of crash points. *)

val ingest_ops : ingest_plan -> int
(** Operations (adds, deletes and merge steps) the golden run ran. *)

val ingest_golden_problems : ingest_plan -> string list
(** Violations the golden run's own pin/drain/gc audit found ([] =
    clean). *)

type ingest_report = {
  i_crash_at : int;
  i_recovery : Mneme.Journal.recovery;
  i_opened : bool;
  i_acked_seq : int;  (** last operation the replay saw acknowledged *)
  i_recovered_seq : int;  (** [min_int] when unopenable *)
  i_seen_folds : int;  (** folds the replay saw commit before the crash *)
  i_recovered_folds : int;
  i_redelivered : int;  (** WAL records recovery re-applied *)
  i_problems : string list;
}

val run_ingest_point : ingest_plan -> int -> ingest_report
(** Replay with a crash at physical I/O [k] (1-based), recover with
    {!Ingest.open_}, audit exactly-once durability and the resumed
    drain.  Raises [Invalid_argument] if [k] is outside
    [1..ingest_points]. *)

type ingest_outcome = {
  i_points : int;
  i_ops : int;
  i_acked : int;  (** operations the golden run acknowledged *)
  i_folds : int;
  i_opened : int;
  i_unopenable : int;
  i_wholly_old : int;  (** recovered to the last fold the replay saw commit *)
  i_wholly_new : int;  (** the journal fsync sealed the interrupted fold *)
  i_replayed : int;
  i_discarded : int;
  i_clean : int;
  i_redelivered : int;  (** WAL records re-applied across all replays *)
  i_reclaimed : int;
  i_problems : (int * string) list;  (** crash point 0 = golden-run audit *)
}

val run_ingest : ?seed:int -> ?docs:int -> unit -> ingest_outcome
(** Enumerate every crash point.  [i_problems = []] means every crash
    recovered every acknowledged document exactly once, served
    byte-identical union rankings, resumed and drained its merge, and
    left a clean store. *)

val pp_ingest_outcome : Format.formatter -> ingest_outcome -> unit

val ingest_table : ingest_plan -> (int * int * int * int) list
(** The golden run per operation: [(op, acked_seq, folds, documents)]. *)

(** {2 Shard torture}

    The fault-at-every-I/O discipline pointed at scatter-gather
    serving.  An unsharded golden index is built and its rankings
    recorded (the full above-baseline ranking per query is the
    restriction oracle); a clean sharded coordinator ({!Shard.create})
    is probed to learn every replica's serving-phase physical I/O
    count; then the scatter is replayed with one member crashed
    ({!Vfs.Fault.crash_at_io}), stalled ({!Vfs.Fault.stall_at_io}) or
    bit-flipped ({!Vfs.Fault.flip_bit_on_read}) at each of those I/Os —
    plus, per shard, a {e blackout} (every replica dead from its first
    serving I/O, exercising retry-with-backoff and shedding) and a
    {e brownout} (every replica slowed below the hedge threshold under
    a deadline, exercising deadline degradation).  Every merged result
    is audited:

    - {b (a)} full-coverage results are bit-identical (doc ids and
      belief floats) to the unsharded index;
    - {b (b)} partial results are {e exactly} the unsharded ranking
      restricted to the answered shards' doc ranges — any deviation is
      a {e silent truncation}, and the coverage record must account for
      every shard and every covered document;
    - {b (c)} the deadline is overshot by at most one in-flight fetch
      (the stall or brownout latency) plus one clean run's worth of
      CPU. *)

type shard_outcome = {
  st_shards : int;
  st_members : int;  (** replicas probed for serving-phase I/Os *)
  st_points : int;  (** member serving I/Os enumerated *)
  st_runs : int;  (** fault replays: sweep + blackouts + brownouts *)
  st_full : int;  (** full-coverage query results audited *)
  st_partial : int;  (** partial (degraded / shed) query results audited *)
  st_overshoots : int;  (** deadline overshoots beyond one fetch *)
  st_truncations : int;  (** silent truncations *)
  st_problems : (int * string) list;  (** (replay number, violation); 0 = clean probe *)
}

val shard_ok : shard_outcome -> bool
(** No problems, no overshoots, no truncations. *)

val run_shard :
  ?seed:int -> ?docs:int -> ?shards:int -> ?replicas:int -> ?top_k:int -> unit -> shard_outcome
(** The full sweep (defaults: seed 42, 24 documents, 2 shards, 2
    replicas per shard, top-10).  [shard_ok] on the outcome means every
    fault replay either served the exact unsharded ranking (hedged
    around the fault) or an exactly-restricted partial one, with the
    deadline bound honoured everywhere.  Raises [Invalid_argument] on
    non-positive counts or more shards than documents. *)

val pp_shard_outcome : Format.formatter -> shard_outcome -> unit

(** {1 Cache coherence under churn}

    The tiered-cache torture: a journaled Mneme live index under an
    add/delete churn workload, with a query-result cache and a block
    cache riding the epoch-publication hook ({!Live_index.on_publish})
    the way a serving frontend would.  The block cache is attached to
    the live index's store as its frame cache ({!Mneme.Store.set_frames})
    and its buffers are transient, so every segment the churn reads
    after its first read comes from a frame.  At every published epoch
    the harness compares the cached read path against the uncached one
    bit-for-bit:

    - every result-cache hit must equal the uncached latest-view
      ranking, and every entry filled at an epoch must hit for the rest
      of that epoch;
    - every pinned epoch, read through the frames while later mutations
      and a gc run under the pins, must hand back exactly the bytes a
      frames-off read of the same pin returns;
    - after gc, no cache holds an entry (result or frame) tagged with a
      collected epoch;
    - both invalidation mechanisms fire: the publication hook's eager
      drop and the probe-time epoch-mismatch purge (the harness gives
      results a one-epoch grace window precisely so the latter has
      stale entries to catch). *)

type cache_outcome = {
  ct_mutations : int;
  ct_comparisons : int;  (** cached-vs-uncached rankings / records compared *)
  ct_result_hits : int;
  ct_frame_hits : int;  (** segment-frame hits in the block cache *)
  ct_invalidations : int;  (** hook drops + probe-time purges, every tier *)
  ct_problems : (int * string) list;  (** (mutation, violation); 0 = audit phase *)
}

val cache_ok : cache_outcome -> bool
(** No problems, and the run actually exercised the machinery: at least
    one hit in each tier and at least one invalidation. *)

val run_cache : ?seed:int -> ?docs:int -> unit -> cache_outcome
(** Run the churn (defaults: seed 42, 18 documents — roughly 24
    published epochs).  Raises [Invalid_argument] on a non-positive
    document count. *)

val pp_cache_outcome : Format.formatter -> cache_outcome -> unit
