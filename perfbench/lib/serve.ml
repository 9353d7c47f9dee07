(* serve-wide: top-10 queries through [Core.Frontend] with one replica,
   result and block caches on.

   The stream is long and mostly distinct and mixes the planner's query
   classes over a wide term pool, so the read path below the result
   cache does the work: vfs reads, buffer faults, postings decode, the
   planner and its executors. *)

open Collections

type sizes = {
  scale : float;  (** TIPSTER preset scale *)
  setups : int;  (** complete set-ups per run; the median is reported *)
  requests : int;  (** requests per pass *)
}

let sizes ~tiny =
  if tiny then { scale = 0.01; setups = 1; requests = 200 }
  else { scale = 0.05; setups = 3; requests = 8000 }

(* Offered open-loop rates (ops per simulated second; [sim_p99_ms] is
   taken at the middle one) and the p99 limit, in simulated ms. *)
let rates = [| 10.0; 20.0; 30.0 |]
let slo_ms = 1000.0

let mib = 1024 * 1024

(* The cache sizes [repro cache] measures. *)
let result_cache = 4 * mib
let block_cache = 8 * mib

(* Query terms come from a topic pool of 3000 ranks out of the top 6000,
   used uniformly: with a skewed pool the seed decides which few heavy
   terms dominate, and the stream's cost mix then moves from seed to
   seed by tens of percent. *)
let topic_pool = 3000
let topic_top_bias = 6000

(* ------------------------------------------------------------------ *)
(* Set-up                                                               *)

type built = {
  vfs : Vfs.t;  (** the build device *)
  buffers : Core.Buffer_sizing.t;
  text_bytes : int;
  index_bytes : int;
  build_written : int;  (** device bytes written to build the index *)
}

let file = "tipster.mneme"
let catalog_file = "tipster.catalog"

let model ~seed (s : sizes) =
  { (Presets.tipster ~scale:s.scale ()) with Docmodel.seed = 1000 + seed }

let build tr model =
  let phase name f =
    let r, p = Metric.timed (fun () -> Trace.span tr ("setup." ^ name) f) in
    (r, (name, p))
  in
  (* Generation and indexing interleave document by document (the
     collection is never held in memory whole); each document's
     generation is timed apart, and traced as a child of the index span. *)
  let gen = ref Metric.no_phase in
  let indexer, gi =
    Metric.timed (fun () ->
        Trace.span tr "setup.index" (fun () ->
            let ix = Inquery.Indexer.create () in
            let rec feed docs =
              match Metric.timed (fun () -> Trace.span tr "setup.generate" docs) with
              | Seq.Nil, p -> gen := Metric.add_phase !gen p
              | Seq.Cons (d, rest), p ->
                gen := Metric.add_phase !gen p;
                Inquery.Indexer.add_document_terms ix ~doc_id:d.Synth.id ~bytes:d.Synth.bytes
                  d.Synth.terms;
                feed rest
            in
            feed (Synth.documents model);
            ix))
  in
  let g = ("generate", !gen) in
  let i =
    ( "index",
      {
        Metric.wall_s = gi.Metric.wall_s -. !gen.Metric.wall_s;
        cpu_s = gi.Metric.cpu_s -. !gen.Metric.cpu_s;
      }
    )
  in
  let records, e = phase "encode" (fun () -> Array.of_seq (Inquery.Indexer.to_records indexer)) in
  let built, b =
    phase "store_build" (fun () ->
        let vfs = Vfs.create () in
        let dict = Inquery.Indexer.dictionary indexer in
        let store = Core.Mneme_backend.build vfs ~file ~dict (Array.to_seq records) in
        Core.Catalog.save vfs ~file:catalog_file (Core.Catalog.of_indexer indexer);
        let largest = Array.fold_left (fun a (_, r) -> max a (Bytes.length r)) 1 records in
        {
          vfs;
          buffers = Core.Buffer_sizing.compute ~largest_record:largest ();
          text_bytes = Inquery.Indexer.collection_bytes indexer;
          index_bytes = Mneme.Store.file_size store;
          build_written = (Vfs.counters vfs).Vfs.bytes_written;
        })
  in
  (built, [ g; i; e; b ])

(* A frontend over a fresh replica: a byte copy of the image on its own
   device with a cold OS cache, fresh buffer pools and fresh caches.
   Counters and clock start at zero, so they cover serving only.
   [probe] wraps the store's fetch closure (the traced run's timing
   wrapper). *)
let open_frontend ?probe ~caches (b : built) =
  let catalog = Core.Catalog.load b.vfs ~file:catalog_file in
  let rvfs = Vfs.create ~cost_model:(Vfs.cost_model b.vfs) () in
  Vfs.copy_file b.vfs file ~into:rvfs;
  Vfs.purge_os_cache rvfs;
  let store = Core.Mneme_backend.open_session rvfs ~file ~buffers:b.buffers in
  let store =
    match probe with
    | None -> store
    | Some wrap -> { store with Core.Index_store.fetch = wrap store.Core.Index_store.fetch }
  in
  Vfs.reset_counters rvfs;
  Vfs.Clock.reset (Vfs.clock rvfs);
  let doc_lens = catalog.Core.Catalog.doc_lens in
  let fe =
    Core.Frontend.create
      ~replicas:[ { Core.Frontend.name = "r0"; vfs = rvfs; store } ]
      ~dict:catalog.Core.Catalog.dict ~n_docs:catalog.Core.Catalog.n_docs
      ~avg_doc_len:(Core.Catalog.avg_doc_length catalog)
      ~doc_len:(fun d -> if d < 0 || d >= Array.length doc_lens then 0 else doc_lens.(d))
      ?result_cache_bytes:(Option.map fst caches) ?block_cache_bytes:(Option.map snd caches) ()
  in
  (fe, rvfs)

(* ------------------------------------------------------------------ *)
(* Request streams                                                      *)

let query_spec model ~n ~seed =
  {
    (Presets.planner_queries model) with
    Querygen.n_queries = n;
    pool_size = topic_pool;
    pool_top_bias = topic_top_bias;
    pool_skew = 0.0;
    seed;
  }

let stream model (s : sizes) ~seed =
  Array.of_list (Querygen.generate model (query_spec model ~n:s.requests ~seed))

(* ------------------------------------------------------------------ *)
(* One pass: the stream, closed loop, one client, on a fresh frontend  *)

type pass = {
  wall_s : float;
  cpu_s : float;
  latency_ms : float array;
  sim_ms : float array;  (** frontend [elapsed_ms] per request *)
  ranked : Inquery.Ranking.ranked list array;
  bad : bool array;  (** raised or came back degraded *)
  decoded : int;
  counters : Vfs.counters;
  clock : Vfs.Clock.snapshot;
  tiers : (string * Util.Cache_stats.t) list;
  gc : Metric.gc;
}

type probe = {
  mutable fetches : int;
  mutable bytes : int;
  distinct : (string, int) Hashtbl.t;  (** record bytes by term: the working set *)
  formats : int array;  (** fetched records by postings format: v1, raw, vbyte, cold *)
}

let tier_index = function
  | Inquery.Postings.V1 -> 0
  | Inquery.Postings.Raw -> 1
  | Inquery.Postings.Vbyte -> 2
  | Inquery.Postings.Cold -> 3

let run_pass ~tr ~probe (b : built) (queries : string array) =
  let wrap =
    if tr.Trace.on then
      Some
        (fun fetch entry ->
          let r = Trace.span tr "store.fetch" (fun () -> fetch entry) in
          probe.fetches <- probe.fetches + 1;
          (match r with
          | Some x ->
            probe.bytes <- probe.bytes + Bytes.length x;
            Hashtbl.replace probe.distinct entry.Inquery.Dictionary.term (Bytes.length x);
            let t = tier_index (Inquery.Postings.tier x) in
            probe.formats.(t) <- probe.formats.(t) + 1
          | None -> ());
          r)
    else None
  in
  let fe, rvfs = open_frontend ?probe:wrap ~caches:(Some (result_cache, block_cache)) b in
  let n = Array.length queries in
  let latency = Array.make n 0.0 and sim = Array.make n 0.0 in
  let ranked = Array.make n [] and bad = Array.make n false in
  let decoded = ref 0 in
  Gc.full_major ();
  let g0 = Metric.gc_now () in
  let w0 = Metric.now_ns () and c0 = Sys.time () in
  for i = 0 to n - 1 do
    Trace.set_op tr i;
    let t0 = Metric.now_ns () in
    (match
       let q = Trace.span tr "parse" (fun () -> Inquery.Query.parse_exn queries.(i)) in
       Trace.span tr "frontend" (fun () ->
           let before = if tr.Trace.on then Some (Vfs.counters rvfs) else None in
           let r = Core.Frontend.run_query ~top_k:10 fe q in
           (match before with
           | Some c ->
             let d = Vfs.diff_counters ~later:(Vfs.counters rvfs) ~earlier:c in
             Trace.note tr
               [
                 ("sim_ms", r.Core.Frontend.elapsed_ms);
                 ("disk_inputs", float_of_int d.Vfs.disk_inputs);
                 ("file_accesses", float_of_int d.Vfs.file_accesses);
                 ("bytes_read", float_of_int d.Vfs.bytes_read);
                 ("postings_decoded", float_of_int r.Core.Frontend.postings_decoded);
                 ("cached", if r.Core.Frontend.cached then 1.0 else 0.0);
               ]
           | None -> ());
           r)
     with
    | r ->
      sim.(i) <- r.Core.Frontend.elapsed_ms;
      ranked.(i) <- r.Core.Frontend.ranked;
      bad.(i) <- r.Core.Frontend.degraded;
      decoded := !decoded + r.Core.Frontend.postings_decoded
    | exception _ -> bad.(i) <- true);
    latency.(i) <- Metric.ms_between t0 (Metric.now_ns ())
  done;
  let w1 = Metric.now_ns () and c1 = Sys.time () in
  let gc = Metric.gc_since g0 in
  {
    wall_s = Metric.s_between w0 w1;
    cpu_s = c1 -. c0;
    latency_ms = latency;
    sim_ms = sim;
    ranked;
    bad;
    decoded = !decoded;
    counters = Vfs.counters rvfs;
    clock = Vfs.Clock.snapshot (Vfs.clock rvfs);
    tiers = Core.Frontend.cache_tiers fe;
    gc;
  }

(* ------------------------------------------------------------------ *)
(* Output check: a caches-off frontend over a fresh copy of the same    *)
(* store, forced onto the exhaustive executor.                          *)

let same_ranking (a : Inquery.Ranking.ranked list) (b : Inquery.Ranking.ranked list) =
  List.length a = List.length b
  && List.for_all2
       (fun x y ->
         x.Inquery.Ranking.doc = y.Inquery.Ranking.doc
         && Int64.equal (Int64.bits_of_float x.Inquery.Ranking.score)
              (Int64.bits_of_float y.Inquery.Ranking.score))
       a b

(* Failed ops of a pass: raised, came back degraded, or ranked
   differently from the oracle.  Returns (failed, mismatched). *)
let failures ~oracle (queries : string array) ~(ranked : Inquery.Ranking.ranked list array) ~bad =
  let failed = ref 0 and mismatches = ref 0 in
  Array.iteri
    (fun i q ->
      if bad.(i) then incr failed
      else if not (same_ranking ranked.(i) (oracle q)) then begin
        incr failed;
        incr mismatches
      end)
    queries;
  (!failed, !mismatches)

let make_oracle (b : built) =
  let fe, _ = open_frontend ~caches:None b in
  let memo = Hashtbl.create 4096 in
  fun q ->
    match Hashtbl.find_opt memo q with
    | Some r -> r
    | None ->
      let r =
        Core.Frontend.run_query_string ~top_k:10
          ~plan:(Inquery.Planner.Forced Inquery.Planner.Exhaustive)
          fe q
      in
      let ranked = if r.Core.Frontend.degraded then [] else r.Core.Frontend.ranked in
      Hashtbl.replace memo q ranked;
      ranked

(* ------------------------------------------------------------------ *)
(* Planner attribution, on its own engine session over a copy of the   *)
(* image so the measured stores are never touched.                      *)

let planner r (b : built) (queries : string array) =
  let pvfs = Vfs.create ~cost_model:(Vfs.cost_model b.vfs) () in
  Vfs.copy_file b.vfs file ~into:pvfs;
  Vfs.copy_file b.vfs catalog_file ~into:pvfs;
  Vfs.purge_os_cache pvfs;
  let catalog = Core.Catalog.load pvfs ~file:catalog_file in
  let store = Core.Mneme_backend.open_session pvfs ~file ~buffers:b.buffers in
  let doc_lens = catalog.Core.Catalog.doc_lens in
  let engine =
    Core.Engine.create ~vfs:pvfs ~store ~dict:catalog.Core.Catalog.dict
      ~n_docs:catalog.Core.Catalog.n_docs ~avg_doc_len:(Core.Catalog.avg_doc_length catalog)
      ~doc_len:(fun d -> if d < 0 || d >= Array.length doc_lens then 0 else doc_lens.(d))
      ()
  in
  let seen = Hashtbl.create 4096 in
  let n = ref 0 and maxscore = ref 0 and intersect = ref 0 and exhaustive = ref 0 in
  let err = ref 0 and actual = ref 0 in
  Array.iter
    (fun q ->
      if not (Hashtbl.mem seen q) then begin
        Hashtbl.add seen q ();
        let t = Core.Engine.run_topk_string ~k:10 engine q in
        incr n;
        (match t.Core.Engine.topk_plan with
        | Inquery.Planner.Maxscore -> incr maxscore
        | Inquery.Planner.Intersect -> incr intersect
        | Inquery.Planner.Exhaustive -> incr exhaustive);
        err := !err + abs (t.Core.Engine.topk_est_bytes - t.Core.Engine.topk_bytes_read);
        actual := !actual + t.Core.Engine.topk_bytes_read
      end)
    queries;
  Report.set r "planner.share_maxscore" (Metric.per !maxscore !n);
  Report.set r "planner.share_intersect" (Metric.per !intersect !n);
  Report.set r "planner.share_exhaustive" (Metric.per !exhaustive !n);
  Report.set r "planner.est_bytes_error" (Metric.per !err !actual)

(* ------------------------------------------------------------------ *)
(* The workload                                                         *)

(* Digest of the generated inputs: the first document and the stream. *)
let digest model queries =
  Digest.to_hex
    (Digest.string
       (String.concat "\n" (Array.to_list queries)
       ^ Synth.document_text (fst (Option.get (Seq.uncons (Synth.documents model))))))

let inputs ~seed ~tiny =
  let s = sizes ~tiny in
  let model = model ~seed s in
  digest model (stream model s ~seed)

let tier name p =
  Option.value ~default:Util.Cache_stats.zero (List.assoc_opt name p.tiers)

let run ~seed ~seconds ~trace ~tiny ~trace_file =
  let s = sizes ~tiny in
  let r = Report.create () in
  let tr = Trace.create () in
  let model = model ~seed s in
  let queries = stream model s ~seed in
  r.Report.inputs <- digest model queries;
  (* Set-up, several times; the last build serves.  A first frontend is
     opened (and dropped) so the open phase is measured like the rest. *)
  let built = ref None in
  let setups =
    List.init s.setups (fun k ->
        built := None;
        Gc.full_major ();
        tr.Trace.on <- trace && k = s.setups - 1;
        let b, phases = build tr model in
        let _, o =
          Metric.timed (fun () ->
              Trace.span tr "setup.open" (fun () -> open_frontend ~caches:None b))
        in
        let _, settle = Metric.timed Gc.full_major in
        built := Some b;
        phases @ [ ("open", o); ("settle", settle) ])
  in
  let b = Option.get !built in
  Report.setup r setups;
  Metric.log "set-up x%d done: index %d bytes, text %d bytes" s.setups b.index_bytes b.text_bytes;
  let setup_spans = Trace.spans tr in
  tr.Trace.on <- false;
  (* Timed phase: whole passes over the stream, each on a fresh
     frontend. *)
  let n = Array.length queries in
  let probe =
    { fetches = 0; bytes = 0; distinct = Hashtbl.create 4096; formats = Array.make 4 0 }
  in
  let oracle = make_oracle b in
  let traced_pass = ref None and failed = ref 0 and mismatches = ref 0 in
  let run ~traced =
    Trace.reset tr;
    tr.Trace.on <- traced;
    probe.fetches <- 0;
    probe.bytes <- 0;
    Hashtbl.reset probe.distinct;
    Array.fill probe.formats 0 4 0;
    let p = run_pass ~tr ~probe b queries in
    tr.Trace.on <- false;
    if traced && !traced_pass = None then
      traced_pass :=
        Some
          ( Trace.spans tr,
            probe.fetches,
            probe.bytes,
            Hashtbl.fold (fun _ b a -> a + b) probe.distinct 0,
            Array.copy probe.formats );
    p
  in
  let check p =
    let f, m = failures ~oracle queries ~ranked:p.ranked ~bad:p.bad in
    failed := !failed + f;
    mismatches := !mismatches + m;
    { p with ranked = [||] }
  in
  let passes = Report.passes r ~seconds ~trace ~wall:(fun p -> p.wall_s) ~run ~check in
  let untraced = Report.host r ~ops:n ~wall:(fun p -> p.wall_s) ~cpu:(fun p -> p.cpu_s) passes in
  let first = List.hd untraced in
  r.Report.attempted <- n * List.length passes;
  r.Report.failed <- !failed;
  (* end to end *)
  let lat = List.map (fun p -> p.latency_ms) untraced in
  Report.set r "query_p50_ms" (Metric.pooled 50.0 lat);
  Report.set r "query_p99_ms" (Metric.pooled 99.0 lat);
  Report.device r ~ops:n first.counters first.clock;
  Report.open_loop r ~seed ~rates ~slo_ms
    (Array.map (fun ms -> { Openloop.service_ms = ms; after_ms = 0.0 }) first.sim_ms);
  Report.set r "space_amp" (Metric.per b.index_bytes b.text_bytes);
  Report.set r "write_amp" (Metric.per b.build_written b.text_bytes);
  (* per layer, counts *)
  let result = tier "result" first and block = tier "block" first in
  let buffer = tier "buffer" first in
  Report.set r "result_cache.hit_rate" (Util.Cache_stats.hit_rate result);
  Report.set r "result_cache.evictions_per_query" (Metric.per result.Util.Cache_stats.evictions n);
  Report.set r "block_cache.hit_rate" (Util.Cache_stats.hit_rate block);
  Report.set r "block_cache.evictions_per_query" (Metric.per block.Util.Cache_stats.evictions n);
  Report.set r "buffer.hit_rate" (Util.Cache_stats.hit_rate buffer);
  Report.set r "buffer.evictions_per_query" (Metric.per buffer.Util.Cache_stats.evictions n);
  Report.set r "postings.decoded_per_query" (Metric.per first.decoded n);
  Report.gc r ~ops:n first.gc;
  Report.set r "check.ops_checked" (float_of_int r.Report.attempted);
  Report.set r "check.mismatches" (float_of_int !mismatches);
  (* per layer, from the first traced pass *)
  (match !traced_pass with
  | None -> ()
  | Some (spans, fetches, bytes, working_set, formats) ->
    let self = Trace.self_ns spans in
    let mean_us sel f =
      let xs = List.filter sel spans in
      Metric.ratio
        (List.fold_left (fun a sp -> a +. f sp) 0.0 xs /. 1e3)
        (float_of_int (List.length xs))
    in
    let named nm sp = String.equal sp.Trace.name nm in
    let hit sp = List.assoc_opt "cached" sp.Trace.counters = Some 1.0 in
    Report.set r "parse.us_per_query" (mean_us (named "parse") Trace.dur_ns);
    Report.set r "frontend.miss_self_us"
      (mean_us (fun sp -> named "frontend" sp && not (hit sp)) self);
    let fetch_ns =
      List.fold_left
        (fun a sp -> if named "store.fetch" sp then a +. Trace.dur_ns sp else a)
        0.0 spans
    in
    Report.set r "store.fetch_us_per_query" (fetch_ns /. 1e3 /. float_of_int n);
    Report.set r "store.fetches_per_query" (Metric.per fetches n);
    Report.set r "store.kb_fetched_per_query" (float_of_int bytes /. 1024.0 /. float_of_int n);
    Report.set r "store.working_set_kb" (float_of_int working_set /. 1024.0);
    Report.set r "store.index_kb" (float_of_int b.index_bytes /. 1024.0);
    List.iteri
      (fun i name ->
        Report.set r ("postings.fetched_share_" ^ name) (Metric.per formats.(i) fetches))
      [ "v1"; "raw"; "vbyte"; "cold" ];
    planner r b queries;
    Option.iter (fun path -> Trace.write_jsonl path (setup_spans @ spans)) trace_file);
  r
