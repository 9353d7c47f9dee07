type breaker_state = Closed | Open | Half_open

type replica_spec = { name : string; vfs : Vfs.t; store : Index_store.t }

type replica = {
  spec : replica_spec;
  mutable state : breaker_state;
  mutable outcomes : bool list; (* newest first; true = stall or failure *)
  mutable opened_at : float;
}

type corrupt_event = { replica : string; term : string; reason : string }

type t = {
  replicas : replica array;
  dict : Inquery.Dictionary.t;
  df_of : (Inquery.Dictionary.entry -> int) option;
  n_docs : int;
  avg_doc_len : float;
  doc_len : int -> int;
  stopwords : Inquery.Stopwords.t option;
  stem : bool;
  hedge_after : float;
  window : int;
  trip_after : int;
  cooldown : float;
  on_corrupt : (replica:string -> term:string -> reason:string -> unit) option;
  corrupt_log : corrupt_event list ref; (* newest first *)
  corrupt_seen : (string, unit) Hashtbl.t; (* "replica\x00term" dedup *)
  rcache : Inquery.Ranking.ranked list Result_cache.t option;
  bcache : Util.Block_cache.t option;
  mutable now : float;
}

type result = {
  ranked : Inquery.Ranking.ranked list;
  degraded : bool;
  deadline_hit : bool;
  skipped_terms : string list;
  failed_terms : (string * string) list;
  hedged_fetches : int;
  served_by : string;
  epoch : int;
  elapsed_ms : float;
  postings_decoded : int;
  cached : bool;
}

let create ~replicas ~dict ?df_of ~n_docs ~avg_doc_len ~doc_len ?stopwords ?(stem = false)
    ?(hedge_after_ms = 60.0) ?(window = 6) ?(trip_after = 3) ?(cooldown_ms = 500.0)
    ?(result_cache_bytes = 0) ?(block_cache_bytes = 0) ?on_corrupt () =
  if replicas = [] then invalid_arg "Frontend.create: no replicas";
  let seen = Hashtbl.create 4 in
  List.iter
    (fun spec ->
      if Hashtbl.mem seen spec.name then
        invalid_arg ("Frontend.create: duplicate replica name: " ^ spec.name);
      Hashtbl.add seen spec.name ())
    replicas;
  if hedge_after_ms <= 0.0 then invalid_arg "Frontend.create: hedge_after_ms must be positive";
  if window < 1 then invalid_arg "Frontend.create: window must be at least 1";
  if trip_after < 1 || trip_after > window then
    invalid_arg "Frontend.create: trip_after must be in [1, window]";
  if cooldown_ms < 0.0 then invalid_arg "Frontend.create: cooldown_ms must be non-negative";
  if result_cache_bytes < 0 then
    invalid_arg "Frontend.create: result_cache_bytes must be non-negative";
  if block_cache_bytes < 0 then
    invalid_arg "Frontend.create: block_cache_bytes must be non-negative";
  let replicas =
    replicas
    |> List.map (fun spec -> { spec; state = Closed; outcomes = []; opened_at = 0.0 })
    |> Array.of_list
  in
  let bcache =
    if block_cache_bytes = 0 then None
    else Some (Util.Block_cache.create ~capacity_bytes:block_cache_bytes)
  in
  (* One budget: every replica's store holds its verified segments as
     frames in the one cache. *)
  Option.iter
    (fun bc -> Array.iter (fun r -> r.spec.store.Index_store.attach_frames bc) replicas)
    bcache;
  {
    replicas;
    dict;
    df_of;
    n_docs;
    avg_doc_len;
    doc_len;
    stopwords;
    stem;
    hedge_after = hedge_after_ms;
    window;
    trip_after;
    cooldown = cooldown_ms;
    on_corrupt;
    corrupt_log = ref [];
    corrupt_seen = Hashtbl.create 8;
    rcache =
      (if result_cache_bytes = 0 then None
       else Some (Result_cache.create ~capacity_bytes:result_cache_bytes));
    bcache;
    now = 0.0;
  }

let of_prepared ?buffers ?hedge_after_ms ?window ?trip_after ?cooldown_ms ?result_cache_bytes
    ?block_cache_bytes ?on_corrupt (p : Experiment.prepared) ~names =
  let catalog = Catalog.load p.Experiment.vfs ~file:p.Experiment.catalog_file in
  let buffers =
    match buffers with Some b -> b | None -> Experiment.default_buffers p
  in
  let replicas =
    List.map
      (fun name ->
        let vfs = Vfs.create ~cost_model:(Vfs.cost_model p.Experiment.vfs) () in
        Vfs.copy_file p.Experiment.vfs p.Experiment.mneme_file ~into:vfs;
        Vfs.purge_os_cache vfs;
        let store = Mneme_backend.open_session vfs ~file:p.Experiment.mneme_file ~buffers in
        { name; vfs; store })
      names
  in
  create ~replicas ~dict:catalog.Catalog.dict ~n_docs:catalog.Catalog.n_docs
    ~avg_doc_len:(Catalog.avg_doc_length catalog)
    ~doc_len:(fun d ->
      if d < 0 || d >= Array.length catalog.Catalog.doc_lens then 0
      else catalog.Catalog.doc_lens.(d))
    ?hedge_after_ms ?window ?trip_after ?cooldown_ms ?result_cache_bytes ?block_cache_bytes
    ?on_corrupt ()

let replica_names t = Array.to_list t.replicas |> List.map (fun r -> r.spec.name)

let find t name =
  match
    Array.to_list t.replicas |> List.find_opt (fun r -> String.equal r.spec.name name)
  with
  | Some r -> r
  | None -> raise Not_found

let replica_vfs t ~name = (find t name).spec.vfs
let breaker t ~name = (find t name).state
let now_ms t = t.now

let tick t ms =
  if ms < 0.0 then invalid_arg "Frontend.tick: negative amount";
  t.now <- t.now +. ms

let rec take n = function
  | [] -> []
  | _ when n = 0 -> []
  | x :: tl -> x :: take (n - 1) tl

(* Feed one outcome to a replica's breaker.  A half-open replica lives
   or dies by its probe; a closed one trips when the rolling window
   accumulates [trip_after] bad outcomes. *)
let record t r ~bad =
  match r.state with
  | Open -> ()
  | Half_open ->
    if bad then begin
      r.state <- Open;
      r.opened_at <- t.now
    end
    else begin
      r.state <- Closed;
      r.outcomes <- []
    end
  | Closed ->
    r.outcomes <- take t.window (bad :: r.outcomes);
    let bads = List.fold_left (fun n b -> if b then n + 1 else n) 0 r.outcomes in
    if bads >= t.trip_after then begin
      r.state <- Open;
      r.opened_at <- t.now;
      r.outcomes <- []
    end

let refresh t r =
  if r.state = Open && t.now -. r.opened_at >= t.cooldown then r.state <- Half_open

(* Routing: a half-open replica gets the next fetch as its probe
   (hedging still covers the query if the probe stalls); otherwise the
   first closed replica in attach order.  The breaker alone decides who
   stops receiving traffic — a stalling replica keeps serving (hedged)
   until its window fills. *)
let route t =
  Array.iter (refresh t) t.replicas;
  let probe = ref None and closed = ref None in
  Array.iteri
    (fun i r ->
      match r.state with
      | Half_open -> if !probe = None then probe := Some i
      | Closed -> if !closed = None then closed := Some i
      | Open -> ())
    t.replicas;
  match !probe with Some _ as p -> p | None -> !closed

let hedge_candidate t ~exclude =
  let found = ref None in
  Array.iteri
    (fun i r -> if i <> exclude && r.state = Closed && !found = None then found := Some i)
    t.replicas;
  !found

(* The replica the next fetch would route to, or the first one when
   every breaker is open.  A query's cache entries are tagged with the
   epoch it serves: replicas of one image publish the same epoch, and a
   replica serving something else simply never gets cache hits for its
   answers. *)
let routed t = match route t with Some i -> t.replicas.(i) | None -> t.replicas.(0)
let preferred t = (routed t).spec.name

(* The canonical result-cache key: the query re-printed after
   [Stopwords.normalize], the rule evaluation itself applies, so surface
   variants that must rank identically ("Retrieval" vs its stem, a
   stopword present or absent) share one entry.  k is part of the key;
   the per-frontend evaluation preset (df_of, stem, stopword list) is
   fixed at create time, so it needs no key bytes. *)
let canonical_key t ~top_k query =
  let norm term =
    match Inquery.Stopwords.normalize ?stopwords:t.stopwords ~stem:t.stem term with
    | Some term -> term
    (* A token no tokenizer emits, so dropped terms cannot collide with
       a real vocabulary word. *)
    | None -> "\x00stop"
  in
  let rec go q =
    match q with
    | Inquery.Query.Term s -> Inquery.Query.Term (norm s)
    | Phrase ts -> Phrase (List.map norm ts)
    | Od (n, ts) -> Od (n, List.map norm ts)
    | Uw (n, ts) -> Uw (n, List.map norm ts)
    | Syn ts -> Syn (List.map norm ts)
    | Sum qs -> Sum (List.map go qs)
    | Wsum ws -> Wsum (List.map (fun (w, c) -> (w, go c)) ws)
    | And qs -> And (List.map go qs)
    | Or qs -> Or (List.map go qs)
    | Not c -> Not (go c)
    | Max qs -> Max (List.map go qs)
  in
  Printf.sprintf "%s|k=%d" (Inquery.Query.to_string (go query)) top_k

(* Budget charge for a cached ranking: one doc id + one score per entry
   plus list/node overhead, and the key's own bytes. *)
let ranked_cost ~key ranked = (40 * List.length ranked) + String.length key + 64

let cache_tiers t =
  let result_tier =
    match t.rcache with Some rc -> [ ("result", Result_cache.stats rc) ] | None -> []
  in
  let frame_tier =
    match t.bcache with Some bc -> [ ("frame", Util.Block_cache.stats bc) ] | None -> []
  in
  let buffer_tier =
    let per_replica =
      Array.to_list t.replicas
      |> List.concat_map (fun r -> List.map snd (r.spec.store.Index_store.buffer_stats ()))
    in
    [ ("buffer", Util.Cache_stats.merge per_replica) ]
  in
  result_tier @ frame_tier @ buffer_tier

let retain_cached_epochs t ~keep =
  let r = match t.rcache with Some rc -> Result_cache.retain rc ~keep | None -> 0 in
  let b = match t.bcache with Some bc -> Util.Block_cache.retain bc ~keep | None -> 0 in
  r + b

let cached_epochs t =
  let r = match t.rcache with Some rc -> Result_cache.epochs rc | None -> [] in
  let b = match t.bcache with Some bc -> Util.Block_cache.epochs bc | None -> [] in
  List.sort_uniq compare (r @ b)

(* One fetch against one replica, timed on that replica's clock.
   Corruption is kept distinct from a dead device: a corrupt segment is
   repairable from a peer and worth reporting to the repair queue. *)
let timed_fetch (r : replica) entry =
  let clk = Vfs.clock r.spec.vfs in
  let before = Vfs.Clock.snapshot clk in
  let res =
    try Ok (r.spec.store.Index_store.fetch entry) with
    | Mneme.Store.Corrupt msg -> Error (`Corrupt msg)
    | Vfs.Crash -> Error `Crashed
  in
  let after = Vfs.Clock.snapshot clk in
  (res, Vfs.Clock.wall_ms (Vfs.Clock.diff ~later:after ~earlier:before))

let err_msg = function `Corrupt msg -> msg | `Crashed -> "replica device crashed"

(* Record a corrupt fetch against its replica, deduplicated on
   (replica, term): the repair worklist, for read-repair to drain.  The
   query itself already routed (or hedged) around the damage. *)
let note_corrupt t (r : replica) ~term res =
  match res with
  | Ok _ | Error `Crashed -> ()
  | Error (`Corrupt reason) ->
    let key = r.spec.name ^ "\x00" ^ term in
    if not (Hashtbl.mem t.corrupt_seen key) then begin
      Hashtbl.add t.corrupt_seen key ();
      t.corrupt_log := { replica = r.spec.name; term; reason } :: !(t.corrupt_log);
      match t.on_corrupt with
      | Some hook -> hook ~replica:r.spec.name ~term ~reason
      | None -> ()
    end

let corrupt_fetches t = List.rev !(t.corrupt_log)

let mark_repaired t ~replica ~term =
  let key = replica ^ "\x00" ^ term in
  if Hashtbl.mem t.corrupt_seen key then begin
    Hashtbl.remove t.corrupt_seen key;
    t.corrupt_log :=
      List.filter
        (fun e -> not (String.equal e.replica replica && String.equal e.term term))
        !(t.corrupt_log);
    true
  end
  else false

let run_query ?(top_k = 100) ?deadline_ms ?floor ?plan t query =
  (match deadline_ms with
  | Some d when d <= 0.0 -> invalid_arg "Frontend.run_query: deadline must be positive"
  | _ -> ());
  let home = routed t in
  let epoch_now = home.spec.store.Index_store.epoch () in
  (* A floor changes which documents the evaluator may return, so
     floored queries bypass the result cache in both directions. *)
  let ckey =
    match t.rcache with
    | Some _ when floor = None -> Some (canonical_key t ~top_k query)
    | _ -> None
  in
  let probe_hit =
    match (t.rcache, ckey) with
    | Some rc, Some key -> Result_cache.find rc ~key ~epoch:epoch_now
    | _ -> None
  in
  match probe_hit with
  | Some ranked ->
    {
      ranked;
      degraded = false;
      deadline_hit = false;
      skipped_terms = [];
      failed_terms = [];
      hedged_fetches = 0;
      served_by = home.spec.name;
      epoch = epoch_now;
      elapsed_ms = 0.0;
      postings_decoded = 0;
      cached = true;
    }
  | None ->
  let elapsed = ref 0.0 in
  let skipped = ref [] and failed = ref [] in
  let hedged = ref 0 in
  let deadline_hit = ref false in
  let served = Array.make (Array.length t.replicas) 0 in
  let advance ms =
    elapsed := !elapsed +. ms;
    t.now <- t.now +. ms
  in
  let skip term = if not (List.mem term !skipped) then skipped := term :: !skipped in
  (* A record whose segment is resident on some replica — the routed one
     first — is a memory read: no I/O, no simulated time, no routing and
     no breaker outcome, so it is used even past the deadline.  Frames
     hold only verified segments, so this is a healthy copy whichever
     replica holds it.  Only a frontend with frames reads this way. *)
  let resident entry =
    let read (r : replica) = r.spec.store.Index_store.fetch_resident entry in
    match read home with
    | Some _ as hit -> hit
    | None -> Array.find_map (fun r -> if r == home then None else read r) t.replicas
  in
  let physical_fetch entry =
    let term = entry.Inquery.Dictionary.term in
    match deadline_ms with
    | Some d when !elapsed >= d ->
      deadline_hit := true;
      skip term;
      None
    | _ -> (
      match route t with
      | None ->
        skip term;
        None
      | Some i -> (
        let r = t.replicas.(i) in
        let res, cost = timed_fetch r entry in
        served.(i) <- served.(i) + 1;
        note_corrupt t r ~term res;
        let bad = (match res with Ok _ -> cost > t.hedge_after | Error _ -> true) in
        if not bad then begin
          advance cost;
          record t r ~bad:false;
          match res with Ok b -> b | Error _ -> assert false
        end
        else
          match hedge_candidate t ~exclude:i with
          | None -> (
            advance cost;
            record t r ~bad:true;
            match res with
            | Ok b -> b
            | Error e ->
              failed := (term, err_msg e) :: !failed;
              None)
          | Some j -> (
            let h = t.replicas.(j) in
            let hres, hcost = timed_fetch h entry in
            served.(j) <- served.(j) + 1;
            note_corrupt t h ~term hres;
            incr hedged;
            (* A failed fetch is retried sequentially; a stalled one is
               raced — the query perceives whichever path finished
               first. *)
            let perceived =
              match res with
              | Error _ -> cost +. hcost
              | Ok _ -> Float.min cost (t.hedge_after +. hcost)
            in
            advance perceived;
            record t r ~bad:true;
            record t h ~bad:(match hres with Ok _ -> hcost > t.hedge_after | Error _ -> true);
            match (res, hres) with
            | Error _, Ok b -> b
            | Ok b, Ok hb -> if t.hedge_after +. hcost < cost then hb else b
            | Ok b, Error _ -> b
            | Error e, Error _ ->
              failed := (term, err_msg e) :: !failed;
              None)))
  in
  let fetch entry =
    match if t.bcache = None then None else resident entry with
    | Some _ as hit -> hit
    | None -> physical_fetch entry
  in
  let source =
    {
      Inquery.Infnet.fetch;
      n_docs = t.n_docs;
      max_doc_id = t.n_docs - 1;
      avg_doc_len = t.avg_doc_len;
      doc_len = t.doc_len;
    }
  in
  (* Deadline checks continue inside evaluation, between candidate
     documents (i.e. between postings blocks) rather than only between
     term fetches: accrued scoring CPU is priced against the remaining
     budget and evaluation stops mid-stream once it would blow the
     deadline.  If the fetch phase already blew it, the evidence is paid
     for — rank it rather than return nothing (same degraded-partial
     contract as before). *)
  let stop_model = Vfs.cost_model t.replicas.(0).spec.vfs in
  let eval_start = ref None in
  let should_stop (s : Inquery.Infnet.stats) =
    match deadline_ms with
    | None -> false
    | Some d ->
      let start =
        match !eval_start with
        | Some v -> v
        | None ->
          eval_start := Some !elapsed;
          !elapsed
      in
      if start >= d then false
      else begin
        let cpu =
          Vfs.Cost_model.engine_cpu_ms stop_model ~postings:s.Inquery.Infnet.postings_scored
            ~nodes:s.Inquery.Infnet.nodes_visited
        in
        if start +. cpu >= d then begin
          deadline_hit := true;
          true
        end
        else false
      end
  in
  let scored, stats, tk =
    Inquery.Infnet.eval_topk source t.dict ?df_of:t.df_of ?floor ?plan ?stopwords:t.stopwords
      ~stem:t.stem ~should_stop ~k:top_k query
  in
  let serving =
    let best = ref 0 in
    Array.iteri (fun i n -> if n > served.(!best) then best := i) served;
    (* A query that fetched nothing — every record resident, or no term
       in the vocabulary — is served by the replica it was routed to. *)
    if served.(!best) = 0 then home else t.replicas.(!best)
  in
  let cpu_ms =
    Vfs.Cost_model.engine_cpu_ms (Vfs.cost_model serving.spec.vfs)
      ~postings:stats.Inquery.Infnet.postings_scored ~nodes:stats.Inquery.Infnet.nodes_visited
  in
  Vfs.Clock.charge_engine_cpu (Vfs.clock serving.spec.vfs) cpu_ms;
  advance cpu_ms;
  let skipped_terms = List.rev !skipped and failed_terms = List.rev !failed in
  let result =
    {
      ranked =
        List.map
          (fun s ->
            { Inquery.Ranking.doc = s.Inquery.Infnet.doc; score = s.Inquery.Infnet.belief })
          scored;
      degraded =
        !deadline_hit || tk.Inquery.Infnet.tk_stopped || skipped_terms <> []
        || failed_terms <> [];
      deadline_hit = !deadline_hit;
      skipped_terms;
      failed_terms;
      hedged_fetches = !hedged;
      served_by = serving.spec.name;
      epoch = serving.spec.store.Index_store.epoch ();
      elapsed_ms = !elapsed;
      postings_decoded = tk.Inquery.Infnet.tk_postings_decoded;
      cached = false;
    }
  in
  (* Fill with complete answers only: a ranking the deadline clipped, or
     that lost terms to skips or failed fetches, must never be replayed
     as a full answer, so it is not cached at all.  An epoch that moved
     mid-query (the serving replica republished) is not inserted either
     — its tag would not match what it was computed from. *)
  (match (t.rcache, ckey) with
  | Some rc, Some key when result.epoch = epoch_now && not result.degraded ->
    Result_cache.insert rc ~key ~epoch:result.epoch ~cost:(ranked_cost ~key result.ranked)
      result.ranked
  | _ -> ());
  result

let run_query_string ?top_k ?deadline_ms ?floor ?plan t text =
  run_query ?top_k ?deadline_ms ?floor ?plan t (Inquery.Query.parse_exn text)
