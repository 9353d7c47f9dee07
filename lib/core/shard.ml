type policy = Fail_fast | Best_effort of float

type shard = {
  sh_name : string;
  sh_lo : int;
  sh_hi : int; (* exclusive *)
  sh_frontend : Frontend.t;
}

type t = {
  shards : shard array;
  policy : policy;
  retries : int;
  backoff : float;
  global_bound : bool;
  docs_total : int;
}

let create ?(shard_replicas = 2) ?(policy = Best_effort 1.0) ?(retries = 1)
    ?(backoff_ms = 600.0) ?(global_bound = true) ?hedge_after_ms ?window ?trip_after
    ?cooldown_ms ?buffers ~shards (p : Experiment.prepared) =
  if shards < 1 then invalid_arg "Shard.create: shards must be positive";
  if shard_replicas < 1 then invalid_arg "Shard.create: shard_replicas must be positive";
  if retries < 0 then invalid_arg "Shard.create: retries must be non-negative";
  if backoff_ms < 0.0 then invalid_arg "Shard.create: backoff_ms must be non-negative";
  (match policy with
  | Best_effort f when not (f >= 0.0 && f <= 1.0) ->
    invalid_arg "Shard.create: Best_effort fraction outside [0, 1]"
  | Best_effort _ | Fail_fast -> ());
  let catalog = Catalog.load p.Experiment.vfs ~file:p.Experiment.catalog_file in
  let n_docs = catalog.Catalog.n_docs in
  if shards > n_docs then invalid_arg "Shard.create: more shards than documents";
  (* Global statistics: every shard ranks under these, never its own
     slice's, so per-document beliefs match the unsharded index bit for
     bit. *)
  let global_dict = catalog.Catalog.dict in
  let df_of entry =
    match Inquery.Dictionary.find global_dict entry.Inquery.Dictionary.term with
    | Some ge -> ge.Inquery.Dictionary.df
    | None -> entry.Inquery.Dictionary.df
  in
  let doc_len = Catalog.doc_len catalog in
  let avg_doc_len = Catalog.avg_doc_length catalog in
  let cost_model = Vfs.cost_model p.Experiment.vfs in
  let make_shard i =
    let lo = i * n_docs / shards and hi = (i + 1) * n_docs / shards in
    let name = Printf.sprintf "shard%d" i in
    (* A full store of the slice: documents keep their global ids. *)
    let indexer = Inquery.Indexer.create () in
    Seq.iter
      (fun (d : Collections.Synth.doc) ->
        if d.Collections.Synth.id >= lo && d.Collections.Synth.id < hi then
          Inquery.Indexer.add_document_terms indexer ~doc_id:d.Collections.Synth.id
            ~bytes:d.Collections.Synth.bytes d.Collections.Synth.terms)
      (Collections.Synth.documents p.Experiment.model);
    let dict = Inquery.Indexer.dictionary indexer in
    let build_vfs = Vfs.create ~cost_model () in
    let file = name ^ ".mneme" in
    ignore (Mneme_backend.build build_vfs ~file ~dict (Inquery.Indexer.to_records indexer));
    let buffers =
      match buffers with
      | Some b -> b
      | None ->
        let largest =
          Seq.fold_left
            (fun acc (_, r) -> max acc (Bytes.length r))
            1
            (Inquery.Indexer.to_records indexer)
        in
        Buffer_sizing.compute ~largest_record:largest ()
    in
    let replicas =
      List.init shard_replicas (fun r ->
          let vfs = Vfs.create ~cost_model () in
          Vfs.copy_file build_vfs file ~into:vfs;
          Vfs.purge_os_cache vfs;
          let store = Mneme_backend.open_session vfs ~file ~buffers in
          { Frontend.name = Printf.sprintf "%s/r%d" name r; vfs; store })
    in
    let frontend =
      Frontend.create ~replicas ~dict ~df_of ~n_docs ~avg_doc_len ~doc_len ?hedge_after_ms
        ?window ?trip_after ?cooldown_ms ()
    in
    { sh_name = name; sh_lo = lo; sh_hi = hi; sh_frontend = frontend }
  in
  {
    shards = Array.init shards make_shard;
    policy;
    retries;
    backoff = backoff_ms;
    global_bound;
    docs_total = n_docs;
  }

let shard_count t = Array.length t.shards
let doc_count t = t.docs_total
let shard_names t = Array.to_list t.shards |> List.map (fun s -> s.sh_name)

let find t name =
  match Array.to_list t.shards |> List.find_opt (fun s -> String.equal s.sh_name name) with
  | Some s -> s
  | None -> raise Not_found

let shard_range t ~shard = let s = find t shard in (s.sh_lo, s.sh_hi)
let shard_frontend t ~shard = (find t shard).sh_frontend
let replica_names t ~shard = Frontend.replica_names (find t shard).sh_frontend

type coverage = {
  shards_total : int;
  answered : int;
  degraded : int;
  shed : int;
  docs_covered : int;
  docs_total : int;
}

let coverage_fraction c =
  if c.docs_total = 0 then 1.0 else float_of_int c.docs_covered /. float_of_int c.docs_total

let full_coverage c = c.answered = c.shards_total

type shard_status = Answered | Degraded of string | Shed of string

type shard_report = {
  r_shard : string;
  r_range : int * int;
  r_attempts : int;
  r_status : shard_status;
  r_elapsed_ms : float;
  r_postings_decoded : int;
  r_hedged_fetches : int;
  r_deadline_hit : bool;
}

type result = {
  ranked : Inquery.Ranking.ranked list;
  coverage : coverage;
  complete : bool;
  reports : shard_report list;
  elapsed_ms : float;
}

type error =
  | Shard_failed of { shard : string; attempts : int; reason : string }
  | Coverage_below_min of { coverage : coverage; fraction : float; min_coverage : float }

let error_message = function
  | Shard_failed { shard; attempts; reason } ->
    Printf.sprintf "shard %s failed after %d attempt(s): %s" shard attempts reason
  | Coverage_below_min { fraction; min_coverage; coverage } ->
    Printf.sprintf "coverage %.3f below required %.3f (%d/%d shards answered)" fraction
      min_coverage coverage.answered coverage.shards_total

(* The ranking order every consumer uses: score descending, ties toward
   the smaller doc id. *)
let rank_order (a : Inquery.Ranking.ranked) (b : Inquery.Ranking.ranked) =
  if a.Inquery.Ranking.score = b.Inquery.Ranking.score then
    compare a.Inquery.Ranking.doc b.Inquery.Ranking.doc
  else compare b.Inquery.Ranking.score a.Inquery.Ranking.score

let rec take n = function
  | [] -> []
  | _ when n = 0 -> []
  | x :: tl -> x :: take (n - 1) tl

exception Bail of error

(* One shard's scatter leg: attempt, classify, retry-with-backoff.
   Deadline-expired attempts are not retried — the budget that would pay
   for the retry is already spent; device-level failures (crashed or
   corrupt on every route) are, after [backoff] of logical time lets the
   shard's breaker cooldowns elapse, as long as attempts and deadline
   budget remain. *)
let scatter_one t ~top_k ~deadline_ms ~floor sh query =
  let fe = sh.sh_frontend in
  let used = ref 0.0 in
  let attempts = ref 0 in
  let decoded = ref 0 in
  let hedged = ref 0 in
  let max_attempts = 1 + t.retries in
  let rec go () =
    incr attempts;
    let remaining =
      match deadline_ms with None -> None | Some d -> Some (d -. !used)
    in
    let r = Frontend.run_query ~top_k ?deadline_ms:remaining ?floor fe query in
    used := !used +. r.Frontend.elapsed_ms;
    decoded := !decoded + r.Frontend.postings_decoded;
    hedged := !hedged + r.Frontend.hedged_fetches;
    if not r.Frontend.degraded then (Answered, Some r, false)
    else if r.Frontend.deadline_hit then (Degraded "deadline expired", Some r, true)
    else begin
      let reason =
        match r.Frontend.failed_terms with
        | (term, why) :: _ -> Printf.sprintf "term %s: %s" term why
        | [] -> "no routable replica"
      in
      let budget_left =
        match deadline_ms with None -> true | Some d -> d -. (!used +. t.backoff) > 0.0
      in
      if !attempts < max_attempts && budget_left then begin
        Frontend.tick fe t.backoff;
        used := !used +. t.backoff;
        go ()
      end
      else (Shed reason, Some r, false)
    end
  in
  let status, result, deadline_hit = go () in
  ( {
      r_shard = sh.sh_name;
      r_range = (sh.sh_lo, sh.sh_hi);
      r_attempts = !attempts;
      r_status = status;
      r_elapsed_ms = !used;
      r_postings_decoded = !decoded;
      r_hedged_fetches = !hedged;
      r_deadline_hit = deadline_hit;
    },
    result )

let run_query ?(top_k = 100) ?deadline_ms t query =
  (match deadline_ms with
  | Some d when d <= 0.0 -> invalid_arg "Shard.run_query: deadline must be positive"
  | _ -> ());
  let merged = ref [] in
  let reports = ref [] in
  let elapsed = ref 0.0 in
  let answered = ref 0 and degraded = ref 0 and shed = ref 0 and covered = ref 0 in
  let floor () =
    if not t.global_bound then None
    else begin
      (* The global bound: the kth best score merged so far.  Only
         answered shards feed it — a degraded shard's scores are
         underestimates (missing evidence) and would over-prune. *)
      let rec kth i = function
        | [] -> None
        | [ (x : Inquery.Ranking.ranked) ] when i = top_k - 1 -> Some x.Inquery.Ranking.score
        | x :: _ when i = top_k - 1 -> Some x.Inquery.Ranking.score
        | _ :: tl -> kth (i + 1) tl
      in
      if top_k = 0 then None else kth 0 !merged
    end
  in
  (try
     Array.iter
       (fun sh ->
         let report, result = scatter_one t ~top_k ~deadline_ms ~floor:(floor ()) sh query in
         reports := report :: !reports;
         if report.r_elapsed_ms > !elapsed then elapsed := report.r_elapsed_ms;
         (match (report.r_status, result) with
         | Answered, Some r ->
           incr answered;
           covered := !covered + (sh.sh_hi - sh.sh_lo);
           merged := take top_k (List.merge rank_order !merged (r.Frontend.ranked))
         | Answered, None -> assert false
         | Degraded reason, _ ->
           incr degraded;
           if t.policy = Fail_fast then
             raise
               (Bail
                  (Shard_failed
                     { shard = sh.sh_name; attempts = report.r_attempts; reason }))
         | Shed reason, _ ->
           incr shed;
           if t.policy = Fail_fast then
             raise
               (Bail
                  (Shard_failed
                     { shard = sh.sh_name; attempts = report.r_attempts; reason }))))
       t.shards;
     let coverage =
       {
         shards_total = Array.length t.shards;
         answered = !answered;
         degraded = !degraded;
         shed = !shed;
         docs_covered = !covered;
         docs_total = t.docs_total;
       }
     in
     let fraction = coverage_fraction coverage in
     (match t.policy with
     | Best_effort min_coverage when fraction < min_coverage ->
       Error (Coverage_below_min { coverage; fraction; min_coverage })
     | Best_effort _ | Fail_fast ->
       Ok
         {
           ranked = !merged;
           coverage;
           complete = full_coverage coverage;
           reports = List.rev !reports;
           elapsed_ms = !elapsed;
         })
   with Bail e -> Error e)

let run_query_string ?top_k ?deadline_ms t text =
  run_query ?top_k ?deadline_ms t (Inquery.Query.parse_exn text)
