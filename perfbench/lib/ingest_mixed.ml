(* ingest-mixed: online ingestion through [Core.Ingest], from an empty
   index, on one thread.

   WAL-acknowledged adds and union searches alternate one to one; a
   budgeted [merge_step] runs after every [merge_every] adds.  The WAL
   fsync, the memory buffer and folding into copy-on-write Mneme epochs
   do the work; searches run TAAT [Infnet.eval] over disk ∪ memory.
   Neither cache tier nor the planner is used. *)

open Collections

type sizes = {
  adds : int;  (** adds per pass; one search follows each *)
  merge_every : int;  (** adds between budgeted merge steps *)
  merge_budget : int;  (** bytes one merge step may fold *)
  n_queries : int;  (** distinct search queries, cycled *)
  checkpoints : int;  (** in-run checks against a from-scratch index *)
  checked_per_checkpoint : int;  (** searches checked at each *)
  setups : int;
}

let sizes ~tiny =
  let s =
    {
      adds = 1000;
      merge_every = 250;
      merge_budget = 256 * 1024;
      n_queries = 1000;
      checkpoints = 4;
      checked_per_checkpoint = 5;
      setups = 9;
    }
  in
  if tiny then { s with adds = 120; merge_every = 30; n_queries = 60; setups = 1 } else s

(* Open-loop rates and p99 limit, as in {!Serve}. *)
let rates = [| 10.0; 20.0; 30.0 |]
let slo_ms = 2000.0

let model ~seed ~n_docs =
  Docmodel.make ~name:"ingest" ~n_docs ~core_vocab:20000 ~zipf_s:0.8 ~hapax_prob:0.01
    ~mean_doc_len:80.0 ~seed:(2000 + seed) ()

(* Flat queries over a uniformly used topic pool: as in serve-wide, a
   skewed pool lets the seed pick the few heavy terms that dominate. *)
let query_spec ~seed ~n =
  Querygen.make ~set_name:"ingest" ~n_queries:n ~mean_terms:4.0 ~pool_size:1000
    ~pool_top_bias:2000 ~pool_skew:0.0 ~fresh_prob:0.2 ~structure:Querygen.Flat
    ~seed:(3000 + seed) ()

let file = "ingest.mneme"

(* ------------------------------------------------------------------ *)
(* One pass                                                             *)

type checked = { prefix : int; query : string; got : Inquery.Ranking.ranked list }

type pass = {
  wall_s : float;
  cpu_s : float;
  add_ms : float array;  (** host latency per add *)
  search_ms : float array;
  jobs : Openloop.job array;  (** user ops in stream order, merges attached *)
  add_sim : float;
  search_sim : float;
  merge_host_ms : float;
  merge_sim : float;
  acked : (int * int) list;  (** (doc id, index into the texts), ascending *)
  refused : int;
  raised : int;
  buffer_peak : int;
  checks : checked list;
  counters : Vfs.counters;
  clock : Vfs.Clock.snapshot;
  stats : Core.Ingest.stats;
  store_bytes : int;
  gc : Metric.gc;
  durability : string list;  (** problems found after the pass *)
}

(* The searches checked in-run: [checked_per_checkpoint] in a row after
   each of [checkpoints] evenly spaced points of the stream. *)
let is_checkpoint (s : sizes) k =
  let every = max 1 (s.adds / (s.checkpoints + 1)) in
  let c = (k + 1) / every in
  c >= 1 && c <= s.checkpoints && (k + 1) mod every < s.checked_per_checkpoint

(* Acked document ids must each be present exactly once. *)
let missing_or_duplicated ~acked ~present =
  let seen = Hashtbl.create 1024 in
  let dup = ref 0 in
  List.iter
    (fun d -> if Hashtbl.mem seen d then incr dup else Hashtbl.add seen d ())
    present;
  let missing = List.length (List.filter (fun d -> not (Hashtbl.mem seen d)) acked) in
  missing + !dup

let run_pass ~tr (s : sizes) (texts : string array) (queries : string array) =
  let vfs = Vfs.create () in
  let t = Core.Ingest.create vfs ~file () in
  Vfs.reset_counters vfs;
  Vfs.Clock.reset (Vfs.clock vfs);
  let clock = Vfs.clock vfs in
  let budget = Mneme.Budget.create ~max_bytes:s.merge_budget () in
  let n = s.adds in
  let add_ms = Array.make n 0.0 and search_ms = Array.make n 0.0 in
  let jobs = Array.make (2 * n) { Openloop.service_ms = 0.0; after_ms = 0.0 } in
  let add_sim = ref 0.0 and search_sim = ref 0.0 and merge_host = ref 0.0 and merge_sim = ref 0.0 in
  let acked = ref [] and refused = ref 0 and raised = ref 0 and peak = ref 0 and checks = ref [] in
  let op i name f =
    Trace.set_op tr i;
    let before = Vfs.Clock.snapshot clock in
    let t0 = Metric.now_ns () in
    let r =
      if not tr.Trace.on then f ()
      else
        Trace.span tr name (fun () ->
            let c = Vfs.counters vfs and g = Metric.gc_now () in
            let r = f () in
            let d = Vfs.diff_counters ~later:(Vfs.counters vfs) ~earlier:c in
            Trace.note tr
              [
                ("alloc_kb", Metric.kb_of_words (Metric.gc_since g).Metric.alloc_words);
                ("sim_ms", Vfs.Clock.wall_ms (Metric.sim_since clock before));
                ("disk_inputs", float_of_int d.Vfs.disk_inputs);
                ("disk_outputs", float_of_int d.Vfs.disk_outputs);
                ("bytes_read", float_of_int d.Vfs.bytes_read);
                ("bytes_written", float_of_int d.Vfs.bytes_written);
              ];
            r)
    in
    let host = Metric.ms_between t0 (Metric.now_ns ()) in
    (r, host, Vfs.Clock.wall_ms (Metric.sim_since clock before))
  in
  Gc.full_major ();
  let g0 = Metric.gc_now () in
  let w0 = Metric.now_ns () and c0 = Sys.time () in
  for k = 0 to n - 1 do
    let text = texts.(k) in
    let ack, host, sim =
      op (2 * k) "ingest.add" (fun () ->
          try Some (Core.Ingest.add_document t text) with _ -> None)
    in
    add_ms.(k) <- host;
    add_sim := !add_sim +. sim;
    jobs.(2 * k) <- { Openloop.service_ms = sim; after_ms = 0.0 };
    (match ack with
    | Some (Core.Ingest.Acked { doc; _ }) -> acked := (doc, k) :: !acked
    | Some Core.Ingest.Overloaded -> incr refused
    | None -> incr raised);
    peak := max !peak (Core.Ingest.buffered_bytes t);
    let q = queries.(k mod Array.length queries) in
    let res, host, sim =
      op ((2 * k) + 1) "ingest.search" (fun () ->
          try Some (Core.Ingest.search ~top_k:10 t q) with _ -> None)
    in
    search_ms.(k) <- host;
    search_sim := !search_sim +. sim;
    jobs.((2 * k) + 1) <- { Openloop.service_ms = sim; after_ms = 0.0 };
    (match res with
    | Some got when is_checkpoint s k ->
      checks := { prefix = List.length !acked; query = q; got } :: !checks
    | Some _ -> ()
    | None -> incr raised);
    if (k + 1) mod s.merge_every = 0 then begin
      let _, host, sim =
        op ((2 * k) + 1) "ingest.merge_step" (fun () ->
            ignore (Core.Ingest.merge_step ~budget t))
      in
      merge_host := !merge_host +. host;
      merge_sim := !merge_sim +. sim;
      jobs.((2 * k) + 1) <- { (jobs.((2 * k) + 1)) with Openloop.after_ms = sim }
    end
  done;
  let w1 = Metric.now_ns () and c1 = Sys.time () in
  let gc = Metric.gc_since g0 in
  let counters = Vfs.counters vfs and snap = Vfs.Clock.snapshot clock in
  let stats = Core.Ingest.stats t in
  let store_bytes = Vfs.size (Vfs.open_file vfs file) in
  let acked = List.rev !acked in
  (* Durability, checked after the pass: what a reboot finds still holds
     every acknowledged document; then the drained index holds each
     exactly once and audits clean. *)
  let durability () =
    let ids = List.map fst acked in
    let problems = ref [] in
    let recovered = Core.Ingest.open_ (Vfs.crash_image vfs) ~file () in
    let lost =
      missing_or_duplicated ~acked:ids ~present:(List.map fst (Core.Ingest.documents recovered))
    in
    if lost > 0 then
      problems :=
        Printf.sprintf "crash image: %d acked documents missing or doubled" lost :: !problems;
    Core.Ingest.drain t;
    let lost = missing_or_duplicated ~acked:ids ~present:(List.map fst (Core.Ingest.documents t)) in
    if lost > 0 then
      problems :=
        Printf.sprintf "after drain: %d acked documents missing or doubled" lost :: !problems;
    List.iter
      (fun (w, p) -> problems := Printf.sprintf "audit %s: %s" w p :: !problems)
      (Core.Ingest.audit t);
    List.rev !problems
  in
  ( {
      wall_s = Metric.s_between w0 w1;
      cpu_s = c1 -. c0;
      add_ms;
      search_ms;
      jobs;
      add_sim = !add_sim;
      search_sim = !search_sim;
      merge_host_ms = !merge_host;
      merge_sim = !merge_sim;
      acked;
      refused = !refused;
      raised = !raised;
      buffer_peak = !peak;
      checks = List.rev !checks;
      counters;
      clock = snap;
      stats;
      store_bytes;
      gc;
      durability = [];
    },
    durability )

(* ------------------------------------------------------------------ *)
(* In-run checks: each recorded search against a from-scratch index of  *)
(* the documents acknowledged before it.                                *)

let make_oracle (texts : string array) =
  let memo = Hashtbl.create 64 in
  (* One twin grows through the checks in prefix order. *)
  let fill (p : pass) =
    let twin = Core.Live_index.create_btree (Vfs.create ()) ~file:"twin.btree" () in
    let acked = ref p.acked and added = ref 0 in
    List.iter
      (fun c ->
        while !added < c.prefix do
          (match !acked with
          | (doc, k) :: rest ->
            ignore (Core.Live_index.add_document twin ~doc_id:doc texts.(k));
            acked := rest
          | [] -> ());
          incr added
        done;
        if not (Hashtbl.mem memo (c.prefix, c.query)) then
          Hashtbl.replace memo (c.prefix, c.query) (Core.Live_index.search ~top_k:10 twin c.query))
      (List.stable_sort (fun a b -> compare a.prefix b.prefix) p.checks)
  in
  fun (p : pass) (c : checked) ->
    if not (Hashtbl.mem memo (c.prefix, c.query)) then fill p;
    Hashtbl.find memo (c.prefix, c.query)

let mismatched ~oracle (p : pass) =
  List.length (List.filter (fun c -> not (Serve.same_ranking c.got (oracle p c))) p.checks)

(* ------------------------------------------------------------------ *)
(* The workload                                                         *)

(* Document texts, in add order, and the search queries. *)
let generate ~seed (s : sizes) =
  let model = model ~seed ~n_docs:s.adds in
  ( Array.of_seq (Seq.map Synth.document_text (Synth.documents model)),
    Array.of_list (Querygen.generate model (query_spec ~seed ~n:s.n_queries)) )

let digest texts queries =
  Digest.to_hex (Digest.string (String.concat "\n" (Array.to_list texts @ Array.to_list queries)))

let inputs ~seed ~tiny =
  let texts, queries = generate ~seed (sizes ~tiny) in
  digest texts queries

let run ~seed ~seconds ~trace ~tiny ~trace_file =
  let s = sizes ~tiny in
  let r = Report.create () in
  let tr = Trace.create () in
  (* Set-up, several times; the last generation serves. *)
  let inputs = ref ([||], [||]) in
  let setups =
    List.init s.setups (fun k ->
        Gc.full_major ();
        tr.Trace.on <- trace && k = s.setups - 1;
        let generated, g =
          Metric.timed (fun () -> Trace.span tr "setup.generate" (fun () -> generate ~seed s))
        in
        let _, o =
          Metric.timed (fun () ->
              Trace.span tr "setup.open" (fun () -> Core.Ingest.create (Vfs.create ()) ~file ()))
        in
        let _, settle = Metric.timed Gc.full_major in
        inputs := generated;
        [ ("generate", g); ("open", o); ("settle", settle) ])
  in
  let texts, queries = !inputs in
  r.Report.inputs <- digest texts queries;
  Report.setup r setups;
  let setup_spans = Trace.spans tr in
  tr.Trace.on <- false;
  Trace.reset tr;
  let oracle = make_oracle texts in
  let traced_spans = ref None in
  let run ~traced =
    Trace.reset tr;
    tr.Trace.on <- traced;
    let p = run_pass ~tr s texts queries in
    tr.Trace.on <- false;
    if traced && !traced_spans = None then traced_spans := Some (Trace.spans tr);
    p
  in
  let check (p, durability) = { p with durability = durability () } in
  let passes = Report.passes r ~seconds ~trace ~wall:(fun p -> p.wall_s) ~run ~check in
  let all = List.map snd passes in
  let ops = 2 * s.adds in
  let untraced = Report.host r ~ops ~wall:(fun p -> p.wall_s) ~cpu:(fun p -> p.cpu_s) passes in
  let first = List.hd untraced in
  (* failures: raised, refused, or a checked search ranked differently *)
  let mismatches = List.fold_left (fun a p -> a + mismatched ~oracle p) 0 all in
  r.Report.attempted <- ops * List.length all;
  r.Report.failed <- List.fold_left (fun a p -> a + p.refused + p.raised) mismatches all;
  List.iter (fun p -> List.iter (Report.fatal r) p.durability) all;
  let searches = List.map (fun p -> p.search_ms) untraced in
  let adds = List.map (fun p -> p.add_ms) untraced in
  Report.set r "query_p50_ms" (Metric.pooled 50.0 searches);
  Report.set r "query_p99_ms" (Metric.pooled 99.0 searches);
  Report.set r "write_p50_ms" (Metric.pooled 50.0 adds);
  Report.set r "write_p99_ms" (Metric.pooled 99.0 adds);
  Report.device r ~ops first.counters first.clock;
  Report.open_loop r ~seed ~rates ~slo_ms first.jobs;
  let text = List.fold_left (fun a (_, k) -> a + String.length texts.(k)) 0 first.acked in
  Report.set r "space_amp" (Metric.per first.store_bytes text);
  Report.set r "write_amp" (Metric.per first.counters.Vfs.bytes_written text);
  let st = first.stats in
  Report.set r "ingest.add_sim_ms"
    (Metric.ratio first.add_sim (float_of_int (List.length first.acked)));
  Report.set r "ingest.search_sim_ms" (Metric.ratio first.search_sim (float_of_int s.adds));
  Report.set r "ingest.merge_ms_per_fold"
    (Metric.median
       (Array.of_list
          (List.map
             (fun p -> Metric.ratio p.merge_host_ms (float_of_int p.stats.Core.Ingest.folds))
             untraced)));
  Report.set r "ingest.merge_sim_ms_per_fold"
    (Metric.ratio first.merge_sim (float_of_int st.Core.Ingest.folds));
  Report.set r "ingest.folds" (float_of_int st.Core.Ingest.folds);
  Report.set r "ingest.seals" (float_of_int st.Core.Ingest.seals);
  Report.set r "ingest.overloads" (float_of_int st.Core.Ingest.overloads);
  Report.set r "ingest.buffer_kb_peak" (float_of_int first.buffer_peak /. 1024.0);
  Report.gc r ~ops first.gc;
  Report.set r "check.ops_checked"
    (float_of_int (List.fold_left (fun a p -> a + List.length p.checks) 0 all));
  Report.set r "check.mismatches" (float_of_int mismatches);
  Option.iter
    (fun path ->
      Option.iter (fun spans -> Trace.write_jsonl path (setup_spans @ spans)) !traced_spans)
    trace_file;
  r
