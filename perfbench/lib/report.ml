(* The metric catalogue and one run's outcome.

   Every workload prints every metric of its mode; a layer a workload
   does not exercise reads 0 there (e.g. [ingest.folds] on serve-wide). *)

let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("query_p50_ms", "ms");
    ("query_p99_ms", "ms");
    ("sim_ms_per_op", "sim-ms");
    ("sim_p99_ms", "sim-ms");
    ("sim_capacity_ops", "ops/sim-s");
    ("heap_peak_mb", "MB");
    ("space_amp", "B/B");
    ("write_amp", "B/B");
  ]

let per_layer =
  [
    ("setup.generate_s", "s");
    ("setup.index_s", "s");
    ("setup.encode_s", "s");
    ("setup.store_build_s", "s");
    ("setup.open_s", "s");
    ("setup.cpu_per_wall", "s/s");
    ("parse.us_per_query", "us");
    ("result_cache.hit_rate", "ratio");
    ("result_cache.evictions_per_query", "count");
    ("planner.share_maxscore", "ratio");
    ("planner.share_intersect", "ratio");
    ("planner.share_exhaustive", "ratio");
    ("planner.est_bytes_error", "ratio");
    ("frontend.miss_self_us", "us");
    ("postings.decoded_per_query", "count");
    ("postings.fetched_share_v1", "ratio");
    ("postings.fetched_share_raw", "ratio");
    ("postings.fetched_share_vbyte", "ratio");
    ("postings.fetched_share_cold", "ratio");
    ("block_cache.hit_rate", "ratio");
    ("block_cache.evictions_per_query", "count");
    ("store.fetch_us_per_query", "us");
    ("store.fetches_per_query", "count");
    ("store.kb_fetched_per_query", "KB");
    ("store.working_set_kb", "KB");
    ("store.index_kb", "KB");
    ("buffer.hit_rate", "ratio");
    ("buffer.evictions_per_query", "count");
    ("vfs.disk_reads_per_op", "count");
    ("vfs.file_accesses_per_op", "count");
    ("vfs.kb_read_per_op", "KB");
    ("vfs.os_cache_hit_rate", "ratio");
    ("vfs.disk_writes_per_op", "count");
    ("vfs.kb_written_per_op", "KB");
    ("sim.disk_ms_per_op", "sim-ms");
    ("sim.syscall_ms_per_op", "sim-ms");
    ("sim.copy_ms_per_op", "sim-ms");
    ("sim.cpu_ms_per_op", "sim-ms");
    ("write_p50_ms", "ms");
    ("write_p99_ms", "ms");
    ("ingest.add_sim_ms", "sim-ms");
    ("ingest.search_sim_ms", "sim-ms");
    ("ingest.merge_ms_per_fold", "ms");
    ("ingest.merge_sim_ms_per_fold", "sim-ms");
    ("ingest.folds", "count");
    ("ingest.seals", "count");
    ("ingest.overloads", "count");
    ("ingest.buffer_kb_peak", "KB");
    ("openloop.rate1", "ops/sim-s");
    ("openloop.rate1.p50_ms", "sim-ms");
    ("openloop.rate1.p99_ms", "sim-ms");
    ("openloop.rate2", "ops/sim-s");
    ("openloop.rate2.p50_ms", "sim-ms");
    ("openloop.rate2.p99_ms", "sim-ms");
    ("openloop.rate3", "ops/sim-s");
    ("openloop.rate3.p50_ms", "sim-ms");
    ("openloop.rate3.p99_ms", "sim-ms");
    ("openloop.slo_ms", "sim-ms");
    ("gc.alloc_kb_per_op", "KB");
    ("gc.promoted_kb_per_op", "KB");
    ("gc.major_collections", "count");
    ("host.cpu_per_wall", "s/s");
    ("host.passes", "count");
    ("trace.overhead_pct", "%");
    ("check.ops_checked", "count");
    ("check.mismatches", "count");
  ]

(* Metrics that are pure functions of the seed: simulated time, counts
   and sizes.  They repeat bit-for-bit; everything else is host time. *)
let deterministic =
  [
    "sim_ms_per_op"; "sim_p99_ms"; "sim_capacity_ops"; "space_amp"; "write_amp";
    "result_cache.hit_rate"; "result_cache.evictions_per_query"; "planner.share_maxscore";
    "planner.share_intersect"; "planner.share_exhaustive"; "planner.est_bytes_error";
    "postings.decoded_per_query"; "postings.fetched_share_v1";
    "postings.fetched_share_raw"; "postings.fetched_share_vbyte"; "postings.fetched_share_cold";
    "block_cache.hit_rate"; "block_cache.evictions_per_query"; "store.fetches_per_query";
    "store.kb_fetched_per_query"; "store.working_set_kb"; "store.index_kb"; "buffer.hit_rate";
    "buffer.evictions_per_query"; "vfs.disk_reads_per_op"; "vfs.file_accesses_per_op";
    "vfs.kb_read_per_op"; "vfs.os_cache_hit_rate"; "vfs.disk_writes_per_op";
    "vfs.kb_written_per_op"; "sim.disk_ms_per_op"; "sim.syscall_ms_per_op"; "sim.copy_ms_per_op";
    "sim.cpu_ms_per_op"; "ingest.add_sim_ms"; "ingest.search_sim_ms";
    "ingest.merge_sim_ms_per_fold"; "ingest.folds"; "ingest.seals"; "ingest.overloads";
    "ingest.buffer_kb_peak"; "openloop.rate1"; "openloop.rate1.p50_ms"; "openloop.rate1.p99_ms";
    "openloop.rate2"; "openloop.rate2.p50_ms"; "openloop.rate2.p99_ms"; "openloop.rate3";
    "openloop.rate3.p50_ms"; "openloop.rate3.p99_ms"; "openloop.slo_ms"; "gc.alloc_kb_per_op";
    "gc.promoted_kb_per_op"; "check.mismatches";
  ]

type t = {
  values : (string, float) Hashtbl.t;
  mutable attempted : int;
  mutable failed : int;
  mutable fatal : string list;  (** broken durability or audit checks *)
  mutable inputs : string;  (** digest of the generated inputs *)
}

let create () = { values = Hashtbl.create 128; attempted = 0; failed = 0; fatal = []; inputs = "" }
let set r name v = Hashtbl.replace r.values name v
let get r name = Option.value ~default:0.0 (Hashtbl.find_opt r.values name)
let fatal r msg = r.fatal <- msg :: r.fatal

let metrics r catalogue =
  List.map (fun (name, unit_) -> Metric.v name unit_ (get r name)) catalogue

(* The open-loop figures shared by every workload; [sim_p99_ms] is
   taken at the middle of the three rates. *)
let open_loop r ~seed ~rates ~slo_ms jobs =
  let gaps = Openloop.unit_gaps ~seed:(seed lxor 0x5eed) ~draws:8 (Array.length jobs) in
  Array.iteri
    (fun i rate ->
      let o = Openloop.replay ~gaps ~rate jobs in
      let k = Printf.sprintf "openloop.rate%d" (i + 1) in
      set r k rate;
      set r (k ^ ".p50_ms") o.Openloop.p50_ms;
      set r (k ^ ".p99_ms") o.Openloop.p99_ms;
      if i = 1 then set r "sim_p99_ms" o.Openloop.p99_ms)
    rates;
  set r "openloop.slo_ms" slo_ms;
  set r "sim_capacity_ops" (Openloop.capacity ~gaps ~slo_ms jobs)

(* Vfs counters and simulated clock components over a measured pass. *)
let device r ~ops (c : Vfs.counters) (s : Vfs.Clock.snapshot) =
  let per x = Metric.per x ops and perf x = Metric.ratio x (float_of_int ops) in
  set r "vfs.disk_reads_per_op" (per c.Vfs.disk_inputs);
  set r "vfs.file_accesses_per_op" (per c.Vfs.file_accesses);
  set r "vfs.kb_read_per_op" (perf (float_of_int c.Vfs.bytes_read /. 1024.0));
  set r "vfs.os_cache_hit_rate"
    (Metric.per c.Vfs.os_cache_hits (c.Vfs.os_cache_hits + c.Vfs.os_cache_misses));
  set r "vfs.disk_writes_per_op" (per c.Vfs.disk_outputs);
  set r "vfs.kb_written_per_op" (perf (float_of_int c.Vfs.bytes_written /. 1024.0));
  set r "sim.disk_ms_per_op" (perf s.Vfs.Clock.disk_ms);
  set r "sim.syscall_ms_per_op" (perf s.Vfs.Clock.syscall_ms);
  set r "sim.copy_ms_per_op" (perf s.Vfs.Clock.copy_ms);
  set r "sim.cpu_ms_per_op" (perf s.Vfs.Clock.engine_cpu_ms);
  set r "sim_ms_per_op" (perf (Vfs.Clock.wall_ms s))

let gc r ~ops (g : Metric.gc) =
  set r "gc.alloc_kb_per_op"
    (Metric.ratio (Metric.kb_of_words g.Metric.alloc_words) (float_of_int ops));
  set r "gc.promoted_kb_per_op"
    (Metric.ratio (Metric.kb_of_words g.Metric.promoted_words) (float_of_int ops));
  set r "gc.major_collections" (float_of_int g.Metric.major)

(* Set-up: the median of several complete set-ups, phase by phase. *)
let setup r (runs : (string * Metric.phase) list list) =
  let med name =
    Metric.median
      (Array.of_list (List.map (fun ph -> (List.assoc name ph).Metric.wall_s) runs))
  in
  List.iter (fun (name, _) -> set r ("setup." ^ name ^ "_s") (med name)) (List.hd runs);
  let totals =
    List.map
      (fun ph -> List.fold_left (fun a (_, p) -> Metric.add_phase a p) Metric.no_phase ph)
      runs
  in
  set r "setup_s" (Metric.median (Array.of_list (List.map (fun p -> p.Metric.wall_s) totals)));
  let all = List.fold_left Metric.add_phase Metric.no_phase totals in
  set r "setup.cpu_per_wall" (Metric.ratio all.Metric.cpu_s all.Metric.wall_s)

(* The timed phase: [run ~traced] is one pass, repeated until [seconds]
   of timed host time ([wall] of what [check] keeps of a pass) have
   accrued, at least two; in a traced run the passes alternate untraced /
   traced.  The heap peak is read right after the first pass, before
   [check] runs on it. *)
let passes r ~seconds ~trace ~wall ~run ~check =
  let rec go i timed acc =
    if i >= 2 && timed >= seconds then List.rev acc
    else begin
      let traced = trace && i mod 2 = 1 in
      let p = run ~traced in
      if i = 0 then set r "heap_peak_mb" (Metric.heap_peak_mb ());
      let p = check p in
      let w = wall p in
      Metric.log "pass %d%s: %.2f s" i (if traced then " (traced)" else "") w;
      go (i + 1) (timed +. w) ((traced, p) :: acc)
    end
  in
  go 0 0.0 []

(* Host-time figures of the passes: [ops_per_s] is ops over timed
   seconds, all passes together; [trace.overhead_pct] is its drop on the
   traced passes.  Returns the untraced passes. *)
let host r ~ops ~wall ~cpu passes =
  let pick t = List.filter_map (fun (traced, p) -> if traced = t then Some p else None) passes in
  let untraced = pick false and traced = pick true in
  let rate ps =
    Metric.ratio
      (float_of_int (ops * List.length ps))
      (List.fold_left (fun a p -> a +. wall p) 0.0 ps)
  in
  let ops_per_s = rate untraced in
  set r "ops_per_s" ops_per_s;
  if traced <> [] then
    set r "trace.overhead_pct" (100.0 *. Metric.ratio (ops_per_s -. rate traced) ops_per_s);
  let sum f = List.fold_left (fun a p -> a +. f p) 0.0 untraced in
  set r "host.cpu_per_wall" (Metric.ratio (sum cpu) (sum wall));
  set r "host.passes" (float_of_int (List.length untraced));
  untraced
