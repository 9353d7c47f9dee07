(* Cost-based plan selection for top-k evaluation.  Pure arithmetic
   over Postings.record_stats — the caller's [stats_of] closure hides
   normalisation, the dictionary and the store, so this module ranks
   plans without ever decoding a doc region. *)

type plan = Exhaustive | Maxscore | Intersect
type choice = Auto | Forced of plan

let plan_name = function
  | Exhaustive -> "exhaustive"
  | Maxscore -> "maxscore"
  | Intersect -> "intersect"

let plan_of_string = function
  | "exhaustive" -> Some Exhaustive
  | "maxscore" -> Some Maxscore
  | "intersect" -> Some Intersect
  | _ -> None

type shape = Flat | Conjunctive | Positional | Other

let is_term = function Query.Term _ -> true | _ -> false
let term_only ns = List.for_all is_term ns
let term_of = function Query.Term w -> w | _ -> assert false

(* The norm is the same fold eval_daat divides by.  A negative weight
   would give its leaf a negative upper bound, which no pruning bound
   can absorb, so such a #wsum is not Flat. *)
let flat = function
  | Query.Term w -> Some ([ (1.0, w) ], 1.0)
  | Query.Sum ns when ns <> [] && term_only ns ->
    Some (List.map (fun n -> (1.0, term_of n)) ns, float_of_int (List.length ns))
  | Query.Wsum ps when ps <> [] && List.for_all (fun (w, n) -> w >= 0.0 && is_term n) ps ->
    let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 ps in
    if total > 0.0 then Some (List.map (fun (w, n) -> (w, term_of n)) ps, total) else None
  | _ -> None

let shape_of q =
  if Option.is_some (flat q) then Flat
  else
    match q with
    | Query.And ns when ns <> [] && term_only ns -> Conjunctive
    | Query.Phrase _ | Query.Od _ | Query.Uw _ -> Positional
    | _ -> Other

let applicable q =
  match shape_of q with
  | Flat -> [ Maxscore; Exhaustive ]
  | Conjunctive | Positional -> [ Intersect; Exhaustive ]
  | Other -> [ Exhaustive ]

type estimate = { e_plan : plan; e_bytes : int; e_blocks : int }

(* Exhaustive DAAT decodes every leaf occurrence whole.  Only the
   position-matching operators walk position bytes (#syn unions doc
   regions without touching positions). *)
let exhaustive_cost stats_of q =
  let bytes = ref 0 and blocks = ref 0 in
  let leaf ~positional w =
    match stats_of w with
    | None -> ()
    | Some s ->
      bytes :=
        !bytes + s.Postings.rs_doc_bytes
        + (if positional then s.Postings.rs_pos_bytes else 0);
      blocks := !blocks + s.Postings.rs_blocks
  in
  let rec go = function
    | Query.Term w -> leaf ~positional:false w
    | Query.Phrase ws | Query.Od (_, ws) | Query.Uw (_, ws) ->
      List.iter (leaf ~positional:true) ws
    | Query.Syn ws -> List.iter (leaf ~positional:false) ws
    | Query.Sum ns | Query.And ns | Query.Or ns | Query.Max ns -> List.iter go ns
    | Query.Wsum ps -> List.iter (fun (_, n) -> go n) ps
    | Query.Not n -> go n
  in
  go q;
  (!bytes, !blocks)

let min_df present =
  List.fold_left (fun m s -> min m s.Postings.rs_df) max_int present

(* Scale a record's doc region to the fraction of its skip blocks a
   seeking cursor can touch when at most [cand] distinct target
   documents are probed.  v1 records have no skip table: a seek scans,
   so the whole region is charged. *)
let seek_cost s cand =
  if s.Postings.rs_blocks = 0 then (s.Postings.rs_doc_bytes, 0)
  else begin
    let touched = min s.Postings.rs_blocks cand in
    let frac = float_of_int touched /. float_of_int s.Postings.rs_blocks in
    ( int_of_float (ceil (float_of_int s.Postings.rs_doc_bytes *. frac)),
      touched )
  end

(* Max-score decodes the essential (rare) cursors whole and only seeks
   the rest to candidate documents; the candidate count is bounded by
   the rarest df plus heap-fill churn proportional to k. *)
let maxscore_cost stats_of ~k ws =
  let present = List.filter_map stats_of ws in
  if present = [] then (0, 0)
  else begin
    let cand = min_df present + (8 * max 1 k) in
    List.fold_left
      (fun (b, bl) s ->
        if s.Postings.rs_df <= cand then
          (b + s.Postings.rs_doc_bytes, bl + s.Postings.rs_blocks)
        else begin
          let db, dbl = seek_cost s cand in
          (b + db, bl + dbl)
        end)
      (0, 0) present
  end

(* Intersection-first: the rarest member's record is decoded whole and
   drives; every other member is only seeked to the driver's documents.
   Position bytes are walked lazily, only for co-occurring documents —
   at most df_min per member, scaled by each member's own df.  The soft
   #and executor also churns candidates while the heap fills, so its
   probe bound gains the same 8k slack as max-score; the positional
   intersection is hard and capped by df_min exactly.  A positional
   query with an absent member returns empty without decoding. *)
let intersect_cost stats_of ~k ~positional ws =
  let stats = List.map stats_of ws in
  if positional && List.exists Option.is_none stats then (0, 0)
  else begin
    let present = List.filter_map Fun.id stats in
    if present = [] then (0, 0)
    else begin
      let df_min = min_df present in
      let cand = if positional then df_min else df_min + (8 * max 1 k) in
      let driver_seen = ref false in
      List.fold_left
        (fun (b, bl) s ->
          let db, dbl =
            if (not !driver_seen) && s.Postings.rs_df = df_min then begin
              driver_seen := true;
              (s.Postings.rs_doc_bytes, s.Postings.rs_blocks)
            end
            else seek_cost s cand
          in
          let pb =
            if positional then
              let frac =
                Float.min 1.0
                  (float_of_int df_min /. float_of_int (max 1 s.Postings.rs_df))
              in
              int_of_float (ceil (float_of_int s.Postings.rs_pos_bytes *. frac))
            else 0
          in
          (b + db + pb, bl + dbl))
        (0, 0) present
    end
  end

let estimate ~stats_of ~k q plan =
  let plan = if List.mem plan (applicable q) then plan else Exhaustive in
  let bytes, blocks =
    match plan with
    | Exhaustive -> exhaustive_cost stats_of q
    | Maxscore -> (
      match flat q with
      | Some (terms, _) -> maxscore_cost stats_of ~k (List.map snd terms)
      | None -> assert false)
    | Intersect -> (
      match q with
      | Query.And ns -> intersect_cost stats_of ~k ~positional:false (List.map term_of ns)
      | Query.Phrase ws | Query.Od (_, ws) | Query.Uw (_, ws) ->
        intersect_cost stats_of ~k ~positional:true ws
      | _ -> assert false)
  in
  { e_plan = plan; e_bytes = bytes; e_blocks = blocks }

(* Equal estimates break toward the executor that can still prune at
   run time: its worst case is the tie, its best case is free. *)
let rank = function Maxscore -> 0 | Intersect -> 1 | Exhaustive -> 2

let decide ~stats_of ~k q =
  match List.map (estimate ~stats_of ~k q) (applicable q) with
  | [] -> assert false
  | e :: es ->
    List.fold_left
      (fun best e ->
        if
          e.e_bytes < best.e_bytes
          || (e.e_bytes = best.e_bytes && rank e.e_plan < rank best.e_plan)
        then e
        else best)
      e es
