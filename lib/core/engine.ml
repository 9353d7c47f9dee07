type repair_ticket = { term : string; reason : string; entry : Inquery.Dictionary.entry }

type t = {
  vfs : Vfs.t;
  store : Index_store.t;
  dict : Inquery.Dictionary.t;
  source : Inquery.Infnet.source;
  stopwords : Inquery.Stopwords.t option;
  stem : bool;
  reserve : bool;
  quarantine : repair_ticket list ref; (* newest first *)
  quarantined_terms : (string, unit) Hashtbl.t; (* O(1) dedup of the list above *)
}

type result = {
  ranked : Inquery.Ranking.ranked list;
  postings_scored : int;
  nodes_visited : int;
  record_lookups : int;
}

let create ~vfs ~store ~dict ~n_docs ?max_doc_id ~avg_doc_len ~doc_len ?stopwords ?(stem = false)
    ?(reserve = true) ?(salvage = true) () =
  let quarantine = ref [] in
  let quarantined_terms = Hashtbl.create 8 in
  (* Salvage mode: a record whose segment fails its CRC32 is quarantined
     — treated as term-not-indexed so the rest of the query still runs —
     instead of aborting query processing with [Mneme.Store.Corrupt].
     A quarantined term short-circuits before the fetch: the query never
     re-pays the doomed read, it just waits for the repair queue. *)
  let fetch entry =
    if not salvage then store.Index_store.fetch entry
    else begin
      let term = entry.Inquery.Dictionary.term in
      if Hashtbl.mem quarantined_terms term then None
      else
        try store.Index_store.fetch entry
        with Mneme.Store.Corrupt msg ->
          Hashtbl.add quarantined_terms term ();
          quarantine := { term; reason = msg; entry } :: !quarantine;
          None
    end
  in
  let max_doc_id = match max_doc_id with Some m -> m | None -> n_docs - 1 in
  let source = { Inquery.Infnet.fetch; n_docs; max_doc_id; avg_doc_len; doc_len } in
  { vfs; store; dict; source; stopwords; stem; reserve; quarantine; quarantined_terms }

let store t = t.store
let epoch t = t.store.Index_store.epoch ()
let quarantined t = List.rev_map (fun tk -> (tk.term, tk.reason)) !(t.quarantine)
let pending_repairs t = List.rev !(t.quarantine)

let mark_healed t ~term =
  if Hashtbl.mem t.quarantined_terms term then begin
    Hashtbl.remove t.quarantined_terms term;
    t.quarantine := List.filter (fun tk -> not (String.equal tk.term term)) !(t.quarantine);
    true
  end
  else false

let heal_pending t ~store ~sources =
  List.map
    (fun tk ->
      let outcome =
        let locator = tk.entry.Inquery.Dictionary.locator in
        if locator < 0 then Error "term has no stored record"
        else
          match Mneme.Store.pool_of_oid store locator with
          | None -> Error "record's logical segment has no owning pool"
          | Some pool -> (
            match Mneme.Store.locate_pseg store locator with
            | None -> Error "record is not placed in any physical segment"
            | Some pseg -> (
              let pname = Mneme.Store.pool_name pool in
              match Mneme.Scrub.damage_of_segment store ~pool:pname ~pseg with
              | None -> Error (Printf.sprintf "%s/pseg %d has no on-disk image" pname pseg)
              | Some damage -> Mneme.Scrub.heal store ~sources damage))
      in
      (match outcome with Ok _ -> ignore (mark_healed t ~term:tk.term) | Error _ -> ());
      (tk.term, outcome))
    (pending_repairs t)

(* Entries named by the query tree, normalised the same way evaluation
   will normalise them, for the reservation scan. *)
let query_entries t query =
  Inquery.Query.terms query
  |> List.filter_map (fun term ->
         Option.bind
           (Inquery.Stopwords.normalize ?stopwords:t.stopwords ~stem:t.stem term)
           (Inquery.Dictionary.find t.dict))

let charge_cpu t stats =
  Vfs.Clock.charge_engine_cpu (Vfs.clock t.vfs)
    (Vfs.Cost_model.engine_cpu_ms (Vfs.cost_model t.vfs)
       ~postings:stats.Inquery.Infnet.postings_scored
       ~nodes:stats.Inquery.Infnet.nodes_visited)

let run_query ?(top_k = 100) t query =
  let release =
    if t.reserve then t.store.Index_store.reserve (query_entries t query)
    else Index_store.no_reserve []
  in
  (* The reservation must not leak when evaluation raises (a corrupt
     record with salvage off, say) — pins would accumulate across
     queries and starve the buffers. *)
  let beliefs, stats =
    Fun.protect ~finally:release (fun () ->
        Inquery.Infnet.eval t.source t.dict ?stopwords:t.stopwords ~stem:t.stem query)
  in
  charge_cpu t stats;
  {
    ranked = Inquery.Ranking.top_k beliefs ~k:top_k;
    postings_scored = stats.Inquery.Infnet.postings_scored;
    nodes_visited = stats.Inquery.Infnet.nodes_visited;
    record_lookups = stats.Inquery.Infnet.record_lookups;
  }

let run_query_string ?top_k t text = run_query ?top_k t (Inquery.Query.parse_exn text)

let run_batch t queries = List.map (run_query_string t) queries

type topk_result = {
  topk_ranked : Inquery.Ranking.ranked list;
  topk_postings_scored : int;
  topk_record_lookups : int;
  topk_plan : Inquery.Planner.plan;
  topk_postings_total : int;
  topk_postings_decoded : int;
  topk_blocks_skipped : int;
  topk_seeks : int;
  topk_bytes_read : int;
  topk_blocks_read : int;
  topk_est_bytes : int;
  topk_est_blocks : int;
}

let run_topk ?(audit = false) ?plan ?(k = 10) t query =
  let release =
    if t.reserve then t.store.Index_store.reserve (query_entries t query)
    else Index_store.no_reserve []
  in
  let scored, stats, tk =
    Fun.protect ~finally:release (fun () ->
        Inquery.Infnet.eval_topk t.source t.dict ?stopwords:t.stopwords ~stem:t.stem ~audit
          ?plan ~k query)
  in
  charge_cpu t stats;
  {
    topk_ranked =
      List.map
        (fun s -> { Inquery.Ranking.doc = s.Inquery.Infnet.doc; score = s.Inquery.Infnet.belief })
        scored;
    topk_postings_scored = stats.Inquery.Infnet.postings_scored;
    topk_record_lookups = stats.Inquery.Infnet.record_lookups;
    topk_plan = tk.Inquery.Infnet.tk_plan;
    topk_postings_total = tk.Inquery.Infnet.tk_postings_total;
    topk_postings_decoded = tk.Inquery.Infnet.tk_postings_decoded;
    topk_blocks_skipped = tk.Inquery.Infnet.tk_blocks_skipped;
    topk_seeks = tk.Inquery.Infnet.tk_seeks;
    topk_bytes_read = tk.Inquery.Infnet.tk_bytes_read;
    topk_blocks_read = tk.Inquery.Infnet.tk_blocks_read;
    topk_est_bytes = tk.Inquery.Infnet.tk_est_bytes;
    topk_est_blocks = tk.Inquery.Infnet.tk_est_blocks;
  }

let run_topk_string ?audit ?plan ?k t text =
  run_topk ?audit ?plan ?k t (Inquery.Query.parse_exn text)
