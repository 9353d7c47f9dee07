exception Audit_mismatch of string

type mode = Batch | Topk of int

type outcome = {
  q_index : int;
  q_domain : int;
  q_ranked : Inquery.Ranking.ranked list;
  q_sim_ms : float;
}

type report = {
  domains : int;
  version : Experiment.version;
  n_queries : int;
  outcomes : outcome array;
  sim_makespan_ms : float;
  sim_serial_ms : float;
  real_elapsed_ms : float;
  worker_sim_ms : float array;
  worker_queries : int array;
  steals : int;
  buffers : (string * Util.Cache_stats.t) list;
  audited : bool;
}

(* ------------------------------------------------------------------ *)
(* The domain pool: [n] tasks served by [domains] workers, distributed
   block-wise into per-worker deques, idle workers stealing.  [serve]
   runs on the worker's domain and must touch only that worker's
   session (plus disjoint slots of shared result arrays).  Returns
   (queries served, steals) per worker. *)

let run_pool ~domains ~n ~serve =
  let deques =
    Array.init domains (fun _ -> Util.Wsq.create ~capacity:(max 1 n) ~dummy:(-1))
  in
  let chunk = if domains = 0 then 1 else (n + domains - 1) / domains in
  for i = 0 to n - 1 do
    Util.Wsq.push deques.(min (domains - 1) (i / max 1 chunk)) i
  done;
  let remaining = Atomic.make n in
  let worker w =
    let served = ref 0 and steals = ref 0 in
    let my = deques.(w) in
    let rec try_steal k =
      if k >= domains then None
      else
        match Util.Wsq.steal deques.((w + k) mod domains) with
        | Some i ->
          incr steals;
          Some i
        | None -> try_steal (k + 1)
    in
    let continue_ = ref true in
    while !continue_ do
      match (match Util.Wsq.pop my with Some i -> Some i | None -> try_steal 1) with
      | Some i ->
        serve ~domain:w i;
        incr served;
        Atomic.decr remaining
      | None -> if Atomic.get remaining <= 0 then continue_ := false else Domain.cpu_relax ()
    done;
    (!served, !steals)
  in
  if domains = 1 then [| worker 0 |]
  else begin
    (* The calling domain is worker 0; the rest are spawned. *)
    let spawned = Array.init (domains - 1) (fun i -> Domain.spawn (fun () -> worker (i + 1))) in
    let first = worker 0 in
    Array.append [| first |] (Array.map Domain.join spawned)
  end

(* ------------------------------------------------------------------ *)
(* Per-domain sessions.  Each worker gets a fresh file system (its own
   simulated clock and cold OS cache) holding a private copy of the
   finalized index image plus the catalog, and opens its own session
   there exactly as a serial run does (Experiment.open_engine) — see the
   domain-safety contract in Mneme.Store. *)

type session = { s_vfs : Vfs.t; s_engine : Engine.t }

let make_session ?policy ~buffers prepared version =
  let src = prepared.Experiment.vfs in
  let vfs = Vfs.create ~cost_model:(Vfs.cost_model src) () in
  let index_file =
    match version with
    | Experiment.Btree -> prepared.Experiment.btree_file
    | Experiment.Mneme_no_cache | Experiment.Mneme_cache -> prepared.Experiment.mneme_file
  in
  Vfs.copy_file src index_file ~into:vfs;
  Vfs.copy_file src prepared.Experiment.catalog_file ~into:vfs;
  {
    s_vfs = vfs;
    s_engine = Experiment.open_engine ?policy ~buffers { prepared with Experiment.vfs } version;
  }

let ranked_of_mode ~mode ~top_k engine text =
  match mode with
  | Batch -> (Engine.run_query_string ~top_k engine text).Engine.ranked
  | Topk k -> (Engine.run_topk_string ~k engine text).Engine.topk_ranked

(* Bit-identity: same documents in the same order with the exact same
   belief bits — the contract eval_topk's audit uses. *)
let check_identical ~q_index ~parallel ~serial =
  let fail fmt =
    Printf.ksprintf (fun msg -> raise (Audit_mismatch msg)) ("query %d: " ^^ fmt) q_index
  in
  let np = List.length parallel and ns = List.length serial in
  if np <> ns then fail "ranking returned %d documents in parallel, %d serially" np ns;
  List.iteri
    (fun pos (p, s) ->
      if p.Inquery.Ranking.doc <> s.Inquery.Ranking.doc then
        fail "rank %d: doc %d in parallel, doc %d serially" pos p.Inquery.Ranking.doc
          s.Inquery.Ranking.doc;
      if not (Float.equal p.Inquery.Ranking.score s.Inquery.Ranking.score) then
        fail "rank %d (doc %d): belief %.17g in parallel, %.17g serially" pos
          p.Inquery.Ranking.doc p.Inquery.Ranking.score s.Inquery.Ranking.score)
    (List.combine parallel serial)

let run_query_set ?(domains = 1) ?(audit = false) ?(mode = Batch) ?(top_k = 100) ?buffers
    ?policy prepared version ~queries =
  if domains <= 0 then invalid_arg "Parallel.run_query_set: domains must be positive";
  (match mode with
  | Topk k when k <= 0 -> invalid_arg "Parallel.run_query_set: top-k depth must be positive"
  | Topk _ | Batch -> ());
  let budget =
    match buffers with Some b -> b | None -> Experiment.default_buffers prepared
  in
  let per_domain = Buffer_sizing.split budget ~ways:domains in
  let sessions =
    Array.init domains (fun _ -> make_session ?policy ~buffers:per_domain prepared version)
  in
  let queries_arr = Array.of_list queries in
  let n = Array.length queries_arr in
  let slots = Array.make (max 1 n) None in
  let baselines =
    Array.map (fun s -> Vfs.Clock.snapshot (Vfs.clock s.s_vfs)) sessions
  in
  let serve ~domain i =
    let s = sessions.(domain) in
    let clock = Vfs.clock s.s_vfs in
    let before = Vfs.Clock.snapshot clock in
    let ranked = ranked_of_mode ~mode ~top_k s.s_engine queries_arr.(i) in
    let after = Vfs.Clock.snapshot clock in
    slots.(i) <-
      Some
        {
          q_index = i;
          q_domain = domain;
          q_ranked = ranked;
          q_sim_ms = Vfs.Clock.wall_ms (Vfs.Clock.diff ~later:after ~earlier:before);
        }
  in
  let t0 = Vfs.Clock.Monotonic.now_ns () in
  let per_worker = run_pool ~domains ~n ~serve in
  let real_elapsed_ms = Vfs.Clock.Monotonic.elapsed_ms ~since:t0 in
  let worker_sim_ms =
    Array.mapi
      (fun w s ->
        let now = Vfs.Clock.snapshot (Vfs.clock s.s_vfs) in
        Vfs.Clock.wall_ms (Vfs.Clock.diff ~later:now ~earlier:baselines.(w)))
      sessions
  in
  let outcomes =
    Array.init n (fun i ->
        match slots.(i) with
        | Some o -> o
        | None -> raise (Audit_mismatch (Printf.sprintf "query %d was never served" i)))
  in
  let buffer_stats s = (Engine.store s.s_engine).Index_store.buffer_stats () in
  let buffers_merged =
    match buffer_stats sessions.(0) with
    | [] -> []
    | first ->
      List.map
        (fun (pool, _) ->
          let per_session =
            Array.to_list sessions
            |> List.filter_map (fun s -> List.assoc_opt pool (buffer_stats s))
          in
          (pool, Util.Cache_stats.merge per_session))
        first
  in
  if audit then begin
    (* Fresh single session with the whole budget — the exact serial
       configuration — replayed in submission order. *)
    let serial = make_session ?policy ~buffers:budget prepared version in
    Array.iteri
      (fun i o ->
        let ranked = ranked_of_mode ~mode ~top_k serial.s_engine queries_arr.(i) in
        check_identical ~q_index:i ~parallel:o.q_ranked ~serial:ranked)
      outcomes
  end;
  {
    domains;
    version;
    n_queries = n;
    outcomes;
    sim_makespan_ms = Array.fold_left max 0.0 worker_sim_ms;
    sim_serial_ms = Array.fold_left ( +. ) 0.0 worker_sim_ms;
    real_elapsed_ms;
    worker_sim_ms;
    worker_queries = Array.map fst per_worker;
    steals = Array.fold_left (fun acc (_, s) -> acc + s) 0 per_worker;
    buffers = buffers_merged;
    audited = audit;
  }
