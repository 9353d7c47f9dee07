type source = {
  fetch : Dictionary.entry -> bytes option;
  n_docs : int;
  max_doc_id : int;
  avg_doc_len : float;
  doc_len : int -> int;
}

type stats = {
  mutable postings_scored : int;
  mutable nodes_visited : int;
  mutable record_lookups : int;
}

let default_belief = 0.4

let idf_weight ~n_docs ~df =
  if df <= 0 then 0.0
  else log ((float_of_int n_docs +. 0.5) /. float_of_int df) /. log (float_of_int n_docs +. 1.0)

let tf_weight ~tf ~dl ~avg_dl =
  let tf = float_of_int tf in
  let norm = if avg_dl > 0.0 then float_of_int dl /. avg_dl else 1.0 in
  tf /. (tf +. 0.5 +. (1.5 *. norm))

let belief ~n_docs ~df ~tf ~dl ~avg_dl =
  default_belief +. (0.6 *. tf_weight ~tf ~dl ~avg_dl *. idf_weight ~n_docs ~df)

(* --- positional leaf matching -------------------------------------- *)

(* doc -> sorted position array, counting the postings examined. *)
let position_table examined record =
  let tbl = Hashtbl.create 64 in
  Postings.fold_positions record ~init:() ~f:(fun () dp ->
      examined := !examined + List.length dp.Postings.positions;
      Hashtbl.replace tbl dp.Postings.doc (Array.of_list dp.Postings.positions));
  tbl

(* Smallest element of the sorted array strictly greater than [q]. *)
let successor arr q =
  let n = Array.length arr in
  let rec go lo hi = if lo >= hi then lo else begin
      let mid = (lo + hi) / 2 in
      if arr.(mid) <= q then go (mid + 1) hi else go lo mid
    end
  in
  let i = go 0 n in
  if i >= n then None else Some arr.(i)

let sort_matches matches = List.sort (fun (a, _) (b, _) -> compare a b) matches

(* Ordered window within one document: chains t1 < t2 < ... with each
   step within [window] positions, over the members' sorted position
   arrays.  Shared by the exhaustive matcher and the intersection
   executor so both compute the exact same tf. *)
let od_match_tf ~window first_ps rest_ps =
  let rec chain q = function
    | [] -> true
    | ps :: more -> (
      match successor ps q with
      | Some q' when q' <= q + window -> chain q' more
      | Some _ | None -> false)
  in
  Array.fold_left (fun acc p -> if chain p rest_ps then acc + 1 else acc) 0 first_ps

(* Ordered window: chains t1 < t2 < ... with each step within [window]
   positions.  [#phrase] is the window-1 case (strictly increasing
   positions make "within 1" mean "exactly adjacent"). *)
let od_doc_tfs ~window records =
  match records with
  | [] -> ([], 0)
  | first :: rest ->
    let examined = ref 0 in
    let first_tbl = position_table examined first in
    let rest_tbls = List.map (position_table examined) rest in
    let matches = ref [] in
    Hashtbl.iter
      (fun doc ps1 ->
        if List.for_all (fun tbl -> Hashtbl.mem tbl doc) rest_tbls then begin
          let rest_ps = List.map (fun tbl -> Hashtbl.find tbl doc) rest_tbls in
          let tf = od_match_tf ~window ps1 rest_ps in
          if tf > 0 then matches := (doc, tf) :: !matches
        end)
      first_tbl;
    (sort_matches !matches, !examined)

let phrase_doc_tfs records = od_doc_tfs ~window:1 records

(* Unordered window within one document: all members within a span of
   [window] positions, over the members' sorted position arrays.
   Sliding scan: repeatedly take the member currently at the smallest
   position; if the current span fits the window, count a match.
   Shared by the exhaustive matcher and the intersection executor. *)
let uw_match_tf ~window arrays =
  let k = Array.length arrays in
  let idx = Array.make k 0 in
  let tf = ref 0 in
  let exhausted = ref false in
  while not !exhausted do
    let lo_i = ref 0 and lo = ref arrays.(0).(idx.(0)) and hi = ref arrays.(0).(idx.(0)) in
    for i = 1 to k - 1 do
      let v = arrays.(i).(idx.(i)) in
      if v < !lo then begin
        lo := v;
        lo_i := i
      end;
      if v > !hi then hi := v
    done;
    if !hi - !lo < window then incr tf;
    idx.(!lo_i) <- idx.(!lo_i) + 1;
    if idx.(!lo_i) >= Array.length arrays.(!lo_i) then exhausted := true
  done;
  !tf

let uw_doc_tfs ~window records =
  match records with
  | [] -> ([], 0)
  | first :: rest ->
    let examined = ref 0 in
    let first_tbl = position_table examined first in
    let rest_tbls = List.map (position_table examined) rest in
    let matches = ref [] in
    Hashtbl.iter
      (fun doc ps1 ->
        if List.for_all (fun tbl -> Hashtbl.mem tbl doc) rest_tbls then begin
          let arrays = Array.of_list (ps1 :: List.map (fun tbl -> Hashtbl.find tbl doc) rest_tbls) in
          let tf = uw_match_tf ~window arrays in
          if tf > 0 then matches := (doc, tf) :: !matches
        end)
      first_tbl;
    (sort_matches !matches, !examined)

(* Synonym class: the members behave as one term whose inverted list is
   the union of theirs (tf sums per document). *)
let syn_doc_tfs records =
  let examined = ref 0 in
  let sums = Hashtbl.create 64 in
  List.iter
    (fun record ->
      Postings.fold_docs record ~init:() ~f:(fun () ~doc ~tf ->
          incr examined;
          let prev = try Hashtbl.find sums doc with Not_found -> 0 in
          Hashtbl.replace sums doc (prev + tf)))
    records;
  (sort_matches (Hashtbl.fold (fun doc tf acc -> (doc, tf) :: acc) sums []), !examined)

(* The df a term leaf scores with: the record's own header count unless
   the caller injects collection-wide statistics ([df_of]) — a
   doc-partitioned shard holds a record with {e local} df but must rank
   with the {e global} df or its beliefs drift from the unsharded
   index.  Positional leaves (#phrase/#od/#uw/#syn) always use their
   match count: their df is a property of the query, not the
   dictionary. *)
let record_df ?df_of entry record =
  match df_of with
  | Some f -> f entry
  | None ->
    let df, _ = Postings.stats record in
    df

(* The dictionary entry a raw query term scores with, after the one
   stop-word/stem rule; [None] for a dropped or out-of-vocabulary term. *)
let lookup dict ?stopwords ~stem term =
  match Stopwords.normalize ?stopwords ~stem term with
  | None -> None
  | Some term -> Dictionary.find dict term

(* A positional leaf's member records, each lookup counted: #phrase /
   #od / #uw need every member's record, #syn takes the union of
   whichever members have one. *)
let member_records source dict ?stopwords ~stem stats ~require_all words =
  let records =
    List.map
      (fun w ->
        match lookup dict ?stopwords ~stem w with
        | None -> None
        | Some entry ->
          stats.record_lookups <- stats.record_lookups + 1;
          source.fetch entry)
      words
  in
  if require_all then
    if List.for_all Option.is_some records && records <> [] then
      Some (List.map Option.get records)
    else None
  else begin
    match List.filter_map Fun.id records with [] -> None | rs -> Some rs
  end

let eval source dict ?df_of ?stopwords ?(stem = false) query =
  let n = source.max_doc_id + 1 in
  let stats = { postings_scored = 0; nodes_visited = 0; record_lookups = 0 } in
  let default_array () = Array.make n default_belief in
  let term_beliefs term =
    let beliefs = default_array () in
    (match lookup dict ?stopwords ~stem term with
    | None -> ()
    | Some entry -> (
      stats.record_lookups <- stats.record_lookups + 1;
      match source.fetch entry with
      | None -> ()
      | Some record ->
        let df = record_df ?df_of entry record in
        Postings.fold_docs record ~init:() ~f:(fun () ~doc ~tf ->
            stats.postings_scored <- stats.postings_scored + 1;
            if doc < n then
              beliefs.(doc) <-
                belief ~n_docs:source.n_docs ~df ~tf ~dl:(source.doc_len doc)
                  ~avg_dl:source.avg_doc_len)));
    beliefs
  in
  let positional_beliefs ~require_all matcher words =
    let beliefs = default_array () in
    (match member_records source dict ?stopwords ~stem stats ~require_all words with
    | None -> ()
    | Some records ->
      let matches, examined = matcher records in
      stats.postings_scored <- stats.postings_scored + examined;
      let df = List.length matches in
      List.iter
        (fun (doc, tf) ->
          if doc < n then
            beliefs.(doc) <-
              belief ~n_docs:source.n_docs ~df ~tf ~dl:(source.doc_len doc)
                ~avg_dl:source.avg_doc_len)
        matches);
    beliefs
  in
  let combine nodes ~init ~f ~finish =
    match nodes with
    | [] -> default_array ()
    | arrays ->
      let out = Array.make n init in
      List.iter (fun a -> Array.iteri (fun d b -> out.(d) <- f out.(d) b) a) arrays;
      let k = List.length arrays in
      Array.map_inplace (fun acc -> finish acc k) out;
      out
  in
  let rec node q =
    stats.nodes_visited <- stats.nodes_visited + 1;
    match q with
    | Query.Term w -> term_beliefs w
    | Query.Phrase ws -> positional_beliefs ~require_all:true phrase_doc_tfs ws
    | Query.Od (window, ws) -> positional_beliefs ~require_all:true (od_doc_tfs ~window) ws
    | Query.Uw (window, ws) -> positional_beliefs ~require_all:true (uw_doc_tfs ~window) ws
    | Query.Syn ws -> positional_beliefs ~require_all:false syn_doc_tfs ws
    | Query.Sum ns ->
      combine (List.map node ns) ~init:0.0 ~f:( +. ) ~finish:(fun acc k ->
          acc /. float_of_int k)
    | Query.And ns ->
      combine (List.map node ns) ~init:1.0 ~f:( *. ) ~finish:(fun acc _ -> acc)
    | Query.Or ns ->
      combine (List.map node ns) ~init:1.0
        ~f:(fun acc b -> acc *. (1.0 -. b))
        ~finish:(fun acc _ -> 1.0 -. acc)
    | Query.Max ns ->
      combine (List.map node ns) ~init:0.0 ~f:Float.max ~finish:(fun acc _ -> acc)
    | Query.Not inner ->
      let a = node inner in
      Array.map (fun b -> 1.0 -. b) a
    | Query.Wsum pairs ->
      let total_w = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 pairs in
      if total_w <= 0.0 then default_array ()
      else begin
        let out = Array.make n 0.0 in
        List.iter
          (fun (w, sub) ->
            let a = node sub in
            Array.iteri (fun d b -> out.(d) <- out.(d) +. (w *. b)) a)
          pairs;
        Array.map_inplace (fun acc -> acc /. total_w) out;
        out
      end
  in
  let beliefs = node query in
  (beliefs, stats)

(* ------------------------------------------------------------------ *)
(* Document-at-a-time evaluation                                       *)

type scored = { doc : int; belief : float }

(* The query tree with leaf cursors over decoded (doc, tf) postings. *)
type dnode =
  | DLeaf of { docs : (int * int) array; df : int; mutable pos : int }
  | DAbsent (* stop word / out-of-vocabulary: contributes the default *)
  | DSum of dnode list
  | DWsum of (float * dnode) list
  | DAnd of dnode list
  | DOr of dnode list
  | DMax of dnode list
  | DNot of dnode

let eval_daat_with ?(on_record = fun (_ : bytes) ~positional:(_ : bool) -> ()) source dict
    ?df_of ?stopwords ?(stem = false) query =
  let stats = { postings_scored = 0; nodes_visited = 0; record_lookups = 0 } in
  let term_leaf term =
    match lookup dict ?stopwords ~stem term with
    | None -> DAbsent
    | Some entry -> (
      stats.record_lookups <- stats.record_lookups + 1;
      match source.fetch entry with
      | None -> DAbsent
      | Some record ->
        on_record record ~positional:false;
        let df = record_df ?df_of entry record in
        let docs =
          Postings.fold_docs record ~init:[] ~f:(fun acc ~doc ~tf -> (doc, tf) :: acc)
          |> List.rev |> Array.of_list
        in
        DLeaf { docs; df; pos = 0 })
  in
  let positional_leaf ~require_all ~positions matcher words =
    match member_records source dict ?stopwords ~stem stats ~require_all words with
    | None -> DAbsent
    | Some records ->
      List.iter (fun r -> on_record r ~positional:positions) records;
      let matches, examined = matcher records in
      stats.postings_scored <- stats.postings_scored + examined;
      DLeaf { docs = Array.of_list matches; df = List.length matches; pos = 0 }
  in
  let rec build q =
    stats.nodes_visited <- stats.nodes_visited + 1;
    match q with
    | Query.Term w -> term_leaf w
    | Query.Phrase ws -> positional_leaf ~require_all:true ~positions:true phrase_doc_tfs ws
    | Query.Od (window, ws) ->
      positional_leaf ~require_all:true ~positions:true (od_doc_tfs ~window) ws
    | Query.Uw (window, ws) ->
      positional_leaf ~require_all:true ~positions:true (uw_doc_tfs ~window) ws
    | Query.Syn ws -> positional_leaf ~require_all:false ~positions:false syn_doc_tfs ws
    | Query.Sum ns -> DSum (List.map build ns)
    | Query.Wsum ps -> DWsum (List.map (fun (w, n) -> (w, build n)) ps)
    | Query.And ns -> DAnd (List.map build ns)
    | Query.Or ns -> DOr (List.map build ns)
    | Query.Max ns -> DMax (List.map build ns)
    | Query.Not n -> DNot (build n)
  in
  let tree = build query in
  (* All leaves, for the frontier scan. *)
  let leaves = ref [] in
  let rec collect = function
    | DLeaf _ as l -> leaves := l :: !leaves
    | DAbsent -> ()
    | DSum ns | DAnd ns | DOr ns | DMax ns -> List.iter collect ns
    | DWsum ps -> List.iter (fun (_, n) -> collect n) ps
    | DNot n -> collect n
  in
  collect tree;
  let frontier () =
    List.fold_left
      (fun acc l ->
        match l with
        | DLeaf c when c.pos < Array.length c.docs ->
          let d = fst c.docs.(c.pos) in
          (match acc with None -> Some d | Some m -> Some (min m d))
        | _ -> acc)
      None !leaves
  in
  let rec score node d =
    match node with
    | DAbsent -> default_belief
    | DLeaf c ->
      if c.pos < Array.length c.docs && fst c.docs.(c.pos) = d then begin
        let _, tf = c.docs.(c.pos) in
        stats.postings_scored <- stats.postings_scored + 1;
        belief ~n_docs:source.n_docs ~df:c.df ~tf ~dl:(source.doc_len d)
          ~avg_dl:source.avg_doc_len
      end
      else default_belief
    | DSum ns ->
      let k = List.length ns in
      if k = 0 then default_belief
      else List.fold_left (fun acc n -> acc +. score n d) 0.0 ns /. float_of_int k
    | DWsum ps ->
      let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 ps in
      if total <= 0.0 then default_belief
      else List.fold_left (fun acc (w, n) -> acc +. (w *. score n d)) 0.0 ps /. total
    | DAnd ns ->
      if ns = [] then default_belief
      else List.fold_left (fun acc n -> acc *. score n d) 1.0 ns
    | DOr ns ->
      if ns = [] then default_belief
      else 1.0 -. List.fold_left (fun acc n -> acc *. (1.0 -. score n d)) 1.0 ns
    | DMax ns ->
      if ns = [] then default_belief
      else List.fold_left (fun acc n -> Float.max acc (score n d)) 0.0 ns
    | DNot n -> 1.0 -. score n d
  in
  let advance d =
    List.iter
      (fun l ->
        match l with
        | DLeaf c when c.pos < Array.length c.docs && fst c.docs.(c.pos) = d ->
          c.pos <- c.pos + 1
        | _ -> ())
      !leaves
  in
  (* The belief a document with no query terms would get: not 0.4 in
     general (e.g. #or of defaults is 0.64, #and is 0.16).  Scoring an
     impossible document id hits every leaf's default path. *)
  let baseline = score tree (-1) in
  let results = ref [] in
  let rec loop () =
    match frontier () with
    | None -> ()
    | Some d ->
      let b = score tree d in
      advance d;
      if b > baseline +. 1e-12 then results := { doc = d; belief = b } :: !results;
      loop ()
  in
  loop ();
  (List.rev !results, stats)

let eval_daat source dict ?df_of ?stopwords ?(stem = false) query =
  eval_daat_with source dict ?df_of ?stopwords ~stem query

(* ------------------------------------------------------------------ *)
(* Cost-planned top-k document-at-a-time evaluation                   *)

type topk_stats = {
  tk_plan : Planner.plan;
  tk_pruned : bool;
  tk_postings_total : int;
  tk_postings_decoded : int;
  tk_blocks_skipped : int;
  tk_seeks : int;
  tk_bytes_read : int;
  tk_blocks_read : int;
  tk_est_bytes : int;
  tk_est_blocks : int;
  tk_stopped : bool;
}

exception Audit_mismatch of string

let take_n n xs =
  let rec go n acc = function
    | x :: tl when n > 0 -> go (n - 1) (x :: acc) tl
    | _ -> List.rev acc
  in
  go n [] xs

(* Score descending, ties toward the smaller doc id — the ranking order
   every consumer of scored lists uses. *)
let rank_order a b =
  if a.belief = b.belief then compare a.doc b.doc else compare b.belief a.belief

(* How the essential-set driver folds its leaves' beliefs: [Add norm]
   is (sum_i w_i * b_i) / norm — a bare term, #sum or #wsum of terms —
   and [Mul] is prod_i b_i — #and of terms. *)
type combiner = Add of float | Mul

(* One leaf of the driver: a weighted term cursor. *)
type leaf = {
  lf_weight : float;
  lf_cur : Postings.cursor option; (* None: stop word / OOV / unfetchable *)
  lf_df : int;
  lf_cap : float; (* bounds this leaf's step in any document; the sort key *)
  lf_coeff : float; (* scale of its per-document cap *)
  lf_mtf : float; (* max_tf as a float; 0 when the record has no header *)
}

let eval_topk source dict ?df_of ?floor ?stopwords ?(stem = false) ?(audit = false)
    ?(plan = Planner.Auto) ?(should_stop = fun (_ : stats) -> false) ~k query =
  if k < 0 then invalid_arg "Infnet.eval_topk: negative k";
  (match floor with
  | Some f when not (Float.is_finite f) -> invalid_arg "Infnet.eval_topk: floor must be finite"
  | Some _ when audit ->
    (* The audit oracle is the full exhaustive top-k; a floor legitimately
       drops documents below it, so the two contracts cannot be compared. *)
    invalid_arg "Infnet.eval_topk: audit cannot be combined with floor"
  | _ -> ());
  (* At most one fetch per dictionary entry, shared by the planner's
     statistics probes, the chosen executor and the audit oracle — the
     cost model never adds store reads, only O(1) header parses. *)
  let memo : (int, bytes option) Hashtbl.t = Hashtbl.create 8 in
  let raw_fetch = source.fetch in
  let fetch_memo entry =
    match Hashtbl.find_opt memo entry.Dictionary.id with
    | Some r -> r
    | None ->
      let r = raw_fetch entry in
      Hashtbl.add memo entry.Dictionary.id r;
      r
  in
  let source = { source with fetch = fetch_memo } in
  (* Planner probes: header statistics only, no lookup accounting (the
     executor's own fetches are the ones the engine charges for). *)
  let stats_of w =
    match lookup dict ?stopwords ~stem w with
    | None -> None
    | Some entry -> Option.map Postings.record_stats (fetch_memo entry)
  in
  let requested =
    match plan with
    | Planner.Auto -> (Planner.decide ~stats_of ~k query).Planner.e_plan
    | Planner.Forced p ->
      if List.mem p (Planner.applicable query) then p else Planner.Exhaustive
  in
  let audit_check ~stopped ranked =
    if audit && not stopped then begin
      let reference, _ = eval_daat source dict ?df_of ?stopwords ~stem query in
      let reference = take_n k (List.sort rank_order reference) in
      let fail msg = raise (Audit_mismatch msg) in
      if List.length reference <> List.length ranked then
        fail
          (Printf.sprintf "%s returned %d results, exhaustive %d"
             (Planner.plan_name requested) (List.length ranked) (List.length reference));
      List.iteri
        (fun i (a, b) ->
          if a.doc <> b.doc || a.belief <> b.belief then
            fail
              (Printf.sprintf
                 "rank %d diverges: %s doc %d belief %.17g, exhaustive doc %d belief %.17g"
                 i (Planner.plan_name requested) a.doc a.belief b.doc b.belief))
        (List.combine ranked reference)
    end
  in
  (* Fetch a bare term's record and open a seekable cursor on it; [None]
     for stop words, OOV terms and unfetchable records. *)
  let term_cursor stats w =
    match lookup dict ?stopwords ~stem w with
    | None -> None
    | Some entry -> (
      stats.record_lookups <- stats.record_lookups + 1;
      match fetch_memo entry with
      | None -> None
      | Some record -> Some (entry, record, Postings.cursor record))
  in
  let cursor_counters curs =
    List.fold_left
      (fun (t, d, bs, sk, by, bl) cur ->
        ( t + Postings.cursor_df cur,
          d + Postings.cursor_decoded cur,
          bs + Postings.cursor_blocks_skipped cur,
          sk + Postings.cursor_seeks cur,
          by + Postings.cursor_bytes_read cur,
          bl + Postings.cursor_blocks_loaded cur ))
      (0, 0, 0, 0, 0, 0) curs
  in
  (* --- plan: exhaustive --------------------------------------------- *)
  let exhaustive_exec () =
    let total = ref 0 and bytes = ref 0 and blocks = ref 0 in
    let on_record record ~positional =
      let s = Postings.record_stats record in
      total := !total + s.Postings.rs_df;
      blocks := !blocks + s.Postings.rs_blocks;
      bytes :=
        !bytes + s.Postings.rs_doc_bytes
        + (if positional then s.Postings.rs_pos_bytes else 0)
    in
    let results, dstats = eval_daat_with ~on_record source dict ?df_of ?stopwords ~stem query in
    let heap = Util.Topk.create ~k in
    List.iter (fun s -> ignore (Util.Topk.offer heap ~doc:s.doc ~score:s.belief)) results;
    (heap, dstats, (!total, !total, 0, 0, !bytes, !blocks), false)
  in
  (* --- plans: Maxscore and #and-Intersect (the essential-set driver) --

     #and is a soft conjunction: a document missing a member still
     scores, that member contributing the 0.4 default factor, so both
     combiners are monotone in every leaf's belief and one bound serves
     both.  Leaves are sorted by cap, largest first; a document absent
     from the first i sorted leaves scores at most [absent.(i)].  The
     leaves whose absence alone keeps a document at or under the
     threshold drop out of the essential prefix: only essential cursors
     drive the frontier, and the rest are seeked to a candidate only
     while its partial score and their per-document caps could still
     beat the threshold.  With k results banked, #and's essential set
     shrinks toward its rarest member and the driver becomes the
     intersection-first scan the planner priced.  A surviving candidate
     is rescored by eval_daat's fold in child order, so beliefs are
     bit-identical, and that rescore is the only place a posting is
     charged. *)
  let essential_exec comb children =
    let stats = { postings_scored = 0; nodes_visited = 0; record_lookups = 0 } in
    let n = List.length children in
    stats.nodes_visited <- (match query with Query.Term _ -> 1 | _ -> 1 + n);
    (* The combiner's pieces match on [comb] inline, so the per-posting
       loops allocate no closure and box no float. *)
    let neutral = match comb with Add _ -> 0.0 | Mul -> 1.0 in
    let[@inline] join acc w b = match comb with Add _ -> acc +. (w *. b) | Mul -> acc *. b in
    let[@inline] step acc w b =
      match comb with Add norm -> acc +. (w *. (b -. default_belief) /. norm) | Mul -> acc *. b
    in
    let[@inline] combine cap rest = match comb with Add _ -> cap +. rest | Mul -> cap *. rest in
    let make_leaf w cur ~df ~idf ~mtf =
      (* tf_w = tf/(tf + 0.5 + 1.5*dl/avg) <= max_tf/(max_tf + 0.5);
         without a max_tf header (v1 record) the bound degrades to the
         idf-only cap tf_w <= 1. *)
      let tf_bound = if mtf > 0.0 then mtf /. (mtf +. 0.5) else 1.0 in
      let ub = default_belief +. (0.6 *. tf_bound *. idf) in
      match comb with
      | Add norm ->
        { lf_weight = w; lf_cur = cur; lf_df = df; lf_cap = w *. (ub -. default_belief) /. norm;
          lf_coeff = w *. 0.6 *. idf /. norm; lf_mtf = mtf }
      | Mul ->
        { lf_weight = w; lf_cur = cur; lf_df = df; lf_cap = ub; lf_coeff = 0.6 *. idf;
          lf_mtf = mtf }
    in
    let leaves =
      Array.of_list
        (List.map
           (fun (w, term) ->
             match term_cursor stats term with
             | None -> make_leaf w None ~df:0 ~idf:0.0 ~mtf:0.0
             | Some (entry, record, cur) ->
               let df = record_df ?df_of entry record in
               let mtf =
                 match Postings.max_tf record with
                 | Some mt when mt > 0 -> float_of_int mt
                 | _ -> 0.0
               in
               make_leaf w (Some cur) ~df ~idf:(idf_weight ~n_docs:source.n_docs ~df) ~mtf)
           children)
    in
    let[@inline] belief_at ~charge lf d =
      match lf.lf_cur with
      | Some cur when Postings.cur_doc cur = d ->
        if charge then stats.postings_scored <- stats.postings_scored + 1;
        belief ~n_docs:source.n_docs ~df:lf.lf_df ~tf:(Postings.cur_tf cur)
          ~dl:(source.doc_len d) ~avg_dl:source.avg_doc_len
      | _ -> default_belief
    in
    let[@inline] close s = match comb with Add norm -> s /. norm | Mul -> s in
    let rescore d =
      let s = ref neutral in
      for j = 0 to n - 1 do
        let lf = leaves.(j) in
        s := join !s lf.lf_weight (belief_at ~charge:true lf d)
      done;
      close !s
    in
    (* The no-evidence score, by the same fold. *)
    let baseline =
      close (Array.fold_left (fun acc lf -> join acc lf.lf_weight default_belief) neutral leaves)
    in
    let heap = Util.Topk.create ~k in
    let thr () =
      let base = baseline +. 1e-12 in
      (* A caller-seeded floor (the scatter-gather coordinator's current
         global kth score) starts the threshold above the heap's own:
         documents that cannot reach it can never enter the global
         top-k, so pruning against it is safe from the first
         candidate.  Strictly-below-floor pruning only — ties at the
         floor survive, preserving the merge's doc-ascending
         tie-break. *)
      let base = match floor with Some f -> Float.max f base | None -> base in
      match Util.Topk.threshold heap with Some t -> Float.max t base | None -> base
    in
    (* Floating-point slack on upper bounds: a candidate is pruned only
       when its bound clears the threshold by more than this. *)
    let margin = 1e-9 in
    let sorted = Array.copy leaves in
    Array.sort (fun a b -> compare b.lf_cap a.lf_cap) sorted;
    (* The best score of a document whose first i sorted leaves stepped
       the partial score to [acc], when [r] combines the caps of the
       rest. *)
    let[@inline] bound acc r = match comb with Add _ -> baseline +. acc +. r | Mul -> acc *. r in
    (* rem.(i) combines the caps of sorted leaves i..; absent.(i) bounds
       a document missing sorted leaves 0..i-1, each at the default. *)
    let rem = Array.make (n + 1) neutral in
    for i = n - 1 downto 0 do
      rem.(i) <- combine sorted.(i).lf_cap rem.(i + 1)
    done;
    let absent = Array.make n 0.0 in
    let acc = ref neutral in
    for i = 0 to n - 1 do
      absent.(i) <- bound !acc rem.(i);
      acc := step !acc sorted.(i).lf_weight default_belief
    done;
    (* Per-candidate refinement of [rem]: once a concrete document is on
       the table its length is known, so the tf bound tightens from
       max_tf/(max_tf + 0.5) (the dl -> 0 limit) to
       max_tf/(max_tf + 0.5 + 1.5*dl/avg_dl) — typically ~2x smaller at
       average length.  Still a true upper bound (tf_weight is monotone
       in tf and exact in dl), so pruning with it cannot change results;
       the essential set keeps the global bounds, which must hold for
       every document. *)
    let rem_d = Array.make (n + 1) neutral in
    let fill_rem_d d =
      let dnorm =
        if source.avg_doc_len > 0.0 then
          float_of_int (source.doc_len d) /. source.avg_doc_len
        else 1.0
      in
      let kd = 0.5 +. (1.5 *. dnorm) in
      for i = n - 1 downto 0 do
        let lf = sorted.(i) in
        let tfb = if lf.lf_mtf > 0.0 then lf.lf_mtf /. (lf.lf_mtf +. kd) else 1.0 in
        let cap =
          match comb with
          | Add _ -> lf.lf_coeff *. tfb
          | Mul -> default_belief +. (lf.lf_coeff *. tfb)
        in
        rem_d.(i) <- combine cap rem_d.(i + 1)
      done
    in
    (* Sorted leaves ess.. are non-essential: alone they cannot lift a
       document over the current threshold, so the frontier ignores them
       and they are only probed via seek.  Monotone: thr only rises. *)
    let ess = ref n in
    let update_ess () =
      let t = thr () in
      while !ess > 0 && absent.(!ess - 1) +. margin <= t do
        decr ess
      done
    in
    let stopped = ref false in
    (* With a seeded floor the essential set can shrink before any
       candidate is scored; without one this is a no-op (thr() starts at
       the baseline, which no bound undercuts). *)
    update_ess ();
    let running = ref true in
    while !running do
      if should_stop stats then begin
        stopped := true;
        running := false
      end
      else begin
        let ess_now = !ess in
        let d = ref max_int in
        for j = 0 to ess_now - 1 do
          match sorted.(j).lf_cur with
          | Some cur ->
            let cd = Postings.cur_doc cur in
            if cd < !d then d := cd
          | None -> ()
        done;
        if !d = max_int then running := false
        else begin
          let d = !d in
          if ess_now < n then fill_rem_d d;
          let acc = ref neutral and pruned = ref false and i = ref 0 in
          while (not !pruned) && !i < n do
            let lf = sorted.(!i) in
            if !i >= ess_now then begin
              if bound !acc rem_d.(!i) +. margin <= thr () then pruned := true
              else match lf.lf_cur with Some cur -> Postings.cursor_seek cur d | None -> ()
            end;
            if not !pruned then acc := step !acc lf.lf_weight (belief_at ~charge:false lf d);
            incr i
          done;
          let changed = ref false in
          if not !pruned then begin
            let s = rescore d in
            if s > baseline +. 1e-12 then changed := Util.Topk.offer heap ~doc:d ~score:s
          end;
          (* Advance past d before the essential set shrinks, so the
             cursor that supplied this frontier doc always moves. *)
          for j = 0 to ess_now - 1 do
            match sorted.(j).lf_cur with
            | Some cur when Postings.cur_doc cur = d -> Postings.cursor_next cur
            | _ -> ()
          done;
          if !changed then update_ess ()
        end
      end
    done;
    let curs = Array.to_list leaves |> List.filter_map (fun lf -> lf.lf_cur) in
    (heap, stats, cursor_counters curs, !stopped)
  in
  (* --- plan: intersection-first positional (#phrase/#od/#uw) --------

     These operators are hard conjunctions (any absent member empties
     the result), so a document-level leapfrog intersection is exact:
     drive the rarest member, seek the others, and decode position
     bytes lazily — only for co-occurring documents — through the same
     per-document window matchers the exhaustive evaluator uses.  Two
     phases because the leaf's df is its match count: matches are
     collected first, then scored.  The caller's floor is deliberately
     ignored (a superset of the floored result is always safe). *)
  let positional_intersect_exec ~window ~unordered ws =
    let stats = { postings_scored = 0; nodes_visited = 0; record_lookups = 0 } in
    stats.nodes_visited <- 1;
    let members = List.map (term_cursor stats) ws in
    let stopped = ref false in
    let matches =
      if members = [] || List.exists Option.is_none members then []
      else begin
        let curs =
          Array.of_list (List.map (fun m -> match m with Some (_, _, c) -> c | None -> assert false) members)
        in
        let nm = Array.length curs in
        let driver = ref 0 in
        for i = 1 to nm - 1 do
          if Postings.cursor_df curs.(i) < Postings.cursor_df curs.(!driver) then driver := i
        done;
        let driver = !driver in
        let out = ref [] in
        let running = ref true in
        while !running do
          if should_stop stats then begin
            stopped := true;
            running := false
          end
          else begin
            let d = Postings.cur_doc curs.(driver) in
            if d = max_int then running := false
            else begin
              (* Leapfrog: seek every other member to d; any overshoot
                 names the next possible co-occurrence. *)
              let target = ref d in
              for i = 0 to nm - 1 do
                if i <> driver then begin
                  Postings.cursor_seek curs.(i) d;
                  let cd = Postings.cur_doc curs.(i) in
                  if cd > !target then target := cd
                end
              done;
              if !target = d then begin
                (* Co-occurrence: only now touch position bytes, in
                   member order for the ordered chain. *)
                let arrays =
                  Array.map
                    (fun cur ->
                      let ps = Postings.cursor_positions cur in
                      stats.postings_scored <- stats.postings_scored + List.length ps;
                      Array.of_list ps)
                    curs
                in
                let tf =
                  if unordered then uw_match_tf ~window arrays
                  else od_match_tf ~window arrays.(0) (List.tl (Array.to_list arrays))
                in
                if tf > 0 then out := (d, tf) :: !out;
                Postings.cursor_next curs.(driver)
              end
              else if !target = max_int then running := false
              else Postings.cursor_seek curs.(driver) !target
            end
          end
        done;
        List.rev !out
      end
    in
    (* Phase two: df is the match count, so scoring must wait for the
       full intersection — identical inputs to eval_daat's match leaf. *)
    let df = List.length matches in
    let heap = Util.Topk.create ~k in
    List.iter
      (fun (d, tf) ->
        stats.postings_scored <- stats.postings_scored + 1;
        let b =
          belief ~n_docs:source.n_docs ~df ~tf ~dl:(source.doc_len d)
            ~avg_dl:source.avg_doc_len
        in
        (* A top-level positional query's baseline is the bare default:
           the tree is one leaf. *)
        if b > default_belief +. 1e-12 then ignore (Util.Topk.offer heap ~doc:d ~score:b))
      matches;
    let curs = List.filter_map (fun m -> Option.map (fun (_, _, c) -> c) m) members in
    (heap, stats, cursor_counters curs, !stopped)
  in
  let heap, stats, (total, decoded, skipped, seeks, bytes, blocks), stopped =
    match requested with
    | Planner.Exhaustive -> exhaustive_exec ()
    | Planner.Maxscore -> (
      match Planner.flat query with
      | Some (terms, norm) -> essential_exec (Add norm) terms
      | None -> assert false (* the planner only picks Maxscore for Flat *))
    | Planner.Intersect -> (
      match query with
      | Query.And ns ->
        essential_exec Mul (List.map (function Query.Term t -> (1.0, t) | _ -> assert false) ns)
      | Query.Phrase ws -> positional_intersect_exec ~window:1 ~unordered:false ws
      | Query.Od (window, ws) -> positional_intersect_exec ~window ~unordered:false ws
      | Query.Uw (window, ws) -> positional_intersect_exec ~window ~unordered:true ws
      | _ -> assert false)
  in
  let ranked =
    List.map
      (fun e -> { doc = e.Util.Topk.doc; belief = e.Util.Topk.score })
      (Util.Topk.sorted_desc heap)
  in
  audit_check ~stopped ranked;
  (* Uniform estimated-vs-actual reporting: the executed plan's estimate
     from the same memoized header statistics the decision used. *)
  let est = Planner.estimate ~stats_of ~k query requested in
  ( ranked,
    stats,
    {
      tk_plan = requested;
      tk_pruned = requested <> Planner.Exhaustive;
      tk_postings_total = total;
      tk_postings_decoded = decoded;
      tk_blocks_skipped = skipped;
      tk_seeks = seeks;
      tk_bytes_read = bytes;
      tk_blocks_read = blocks;
      tk_est_bytes = est.Planner.e_bytes;
      tk_est_blocks = est.Planner.e_blocks;
      tk_stopped = stopped;
    } )
