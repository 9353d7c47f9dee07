(* Max-score top-k DAAT: result-identical to exhaustive evaluation,
   pruning stats, fallback shapes, v1-record degradation. *)

let corpus =
  [
    (0, "apple banana cherry apple date");
    (1, "banana cherry banana");
    (2, "cherry date elderberry fig grape");
    (3, "apple apple apple banana");
    (4, "information retrieval system design");
    (5, "retrieval of information by content");
    (6, "grape fig banana");
  ]

let source_of_docs docs =
  let ix = Inquery.Indexer.create () in
  List.iter (fun (id, text) -> Inquery.Indexer.add_document ix ~doc_id:id text) docs;
  let records = Hashtbl.create 16 in
  Seq.iter (fun (id, r) -> Hashtbl.replace records id r) (Inquery.Indexer.to_records ix);
  let dict = Inquery.Indexer.dictionary ix in
  let n = List.fold_left (fun acc (id, _) -> max acc (id + 1)) 0 docs in
  let source =
    {
      Inquery.Infnet.fetch = (fun e -> Hashtbl.find_opt records e.Inquery.Dictionary.id);
      n_docs = n;
      max_doc_id = n - 1;
      avg_doc_len = Inquery.Indexer.avg_doc_length ix;
      doc_len = Inquery.Indexer.doc_length ix;
    }
  in
  (source, dict)

let make () = source_of_docs corpus

let rank_order (a : Inquery.Infnet.scored) (b : Inquery.Infnet.scored) =
  if a.Inquery.Infnet.belief = b.Inquery.Infnet.belief then
    compare a.Inquery.Infnet.doc b.Inquery.Infnet.doc
  else compare b.Inquery.Infnet.belief a.Inquery.Infnet.belief

let take k xs =
  let rec go n acc = function
    | x :: rest when n > 0 -> go (n - 1) (x :: acc) rest
    | _ -> List.rev acc
  in
  go k [] xs

let reference source dict q ~k =
  let daat, _ = Inquery.Infnet.eval_daat source dict q in
  take k (List.sort rank_order daat)

(* Exact equality — docs AND beliefs bit-identical. *)
let check_identical ?(k = 5) query () =
  let source, dict = make () in
  let q = Inquery.Query.parse_exn query in
  let expect = reference source dict q ~k in
  let got, _, _ = Inquery.Infnet.eval_topk source dict ~audit:true ~k q in
  Alcotest.(check int) "result count" (List.length expect) (List.length got);
  List.iter2
    (fun (e : Inquery.Infnet.scored) (g : Inquery.Infnet.scored) ->
      Alcotest.(check int) "doc" e.Inquery.Infnet.doc g.Inquery.Infnet.doc;
      Alcotest.(check bool)
        (Printf.sprintf "belief bit-identical for doc %d" e.Inquery.Infnet.doc)
        true
        (e.Inquery.Infnet.belief = g.Inquery.Infnet.belief))
    expect got

let pruned_queries =
  [ "apple"; "#sum( apple banana )"; "#sum( apple banana cherry fig date )";
    "#wsum( 3 apple 1 cherry 2 fig )"; "#wsum( 1 retrieval 2 information )" ]

(* Shapes the intersection-first executor now handles: top-level #and
   of terms and the positional operators plan as Intersect. *)
let intersect_queries =
  [ "#and( banana cherry )"; "#phrase( information retrieval )";
    "#od3( information retrieval )"; "#uw5( retrieval information )" ]

let fallback_queries =
  [ "#or( date grape )"; "#max( apple elderberry )"; "#not( apple )";
    "#sum( retrieval #phrase( information retrieval ) )";
    "#sum( apple #and( banana cherry ) )"; "#wsum( 1.0 banana -0.5 elderberry )" ]

let test_pruned_path_runs () =
  let source, dict = make () in
  List.iter
    (fun query ->
      let q = Inquery.Query.parse_exn query in
      let _, _, t = Inquery.Infnet.eval_topk source dict ~k:3 q in
      Alcotest.(check bool) ("pruned path: " ^ query) true t.Inquery.Infnet.tk_pruned;
      Alcotest.(check bool) ("maxscore plan: " ^ query) true
        (t.Inquery.Infnet.tk_plan = Inquery.Planner.Maxscore))
    pruned_queries

let test_intersect_shapes () =
  let source, dict = make () in
  List.iter
    (fun query ->
      let q = Inquery.Query.parse_exn query in
      let got, _, t = Inquery.Infnet.eval_topk source dict ~k:4 q in
      Alcotest.(check bool) ("intersect plan: " ^ query) true
        (t.Inquery.Infnet.tk_plan = Inquery.Planner.Intersect);
      Alcotest.(check bool) ("pruned: " ^ query) true t.Inquery.Infnet.tk_pruned;
      let expect = reference source dict q ~k:4 in
      Alcotest.(check bool) ("identical: " ^ query) true (got = expect))
    intersect_queries

let test_fallback_shapes () =
  let source, dict = make () in
  List.iter
    (fun query ->
      let q = Inquery.Query.parse_exn query in
      let got, _, t = Inquery.Infnet.eval_topk source dict ~k:4 q in
      Alcotest.(check bool) ("fallback: " ^ query) false t.Inquery.Infnet.tk_pruned;
      Alcotest.(check bool) ("exhaustive plan: " ^ query) true
        (t.Inquery.Infnet.tk_plan = Inquery.Planner.Exhaustive);
      let expect = reference source dict q ~k:4 in
      Alcotest.(check bool) ("identical: " ^ query) true (got = expect))
    fallback_queries

let test_forced_plans_identical () =
  (* Every forced plan returns bit-identical results on every shape —
     inapplicable plans fall back to exhaustive rather than failing. *)
  let source, dict = make () in
  List.iter
    (fun query ->
      let q = Inquery.Query.parse_exn query in
      let expect = reference source dict q ~k:4 in
      List.iter
        (fun p ->
          let got, _, _ =
            Inquery.Infnet.eval_topk source dict ~audit:true
              ~plan:(Inquery.Planner.Forced p) ~k:4 q
          in
          Alcotest.(check bool)
            (Printf.sprintf "forced %s: %s" (Inquery.Planner.plan_name p) query)
            true (got = expect))
        [ Inquery.Planner.Exhaustive; Inquery.Planner.Maxscore; Inquery.Planner.Intersect ])
    (pruned_queries @ intersect_queries @ fallback_queries)

let test_exhaustive_flag () =
  let source, dict = make () in
  let q = Inquery.Query.parse_exn "#sum( apple banana )" in
  let got, _, t =
    Inquery.Infnet.eval_topk source dict
      ~plan:(Inquery.Planner.Forced Inquery.Planner.Exhaustive) ~k:3 q
  in
  Alcotest.(check bool) "forced fallback" false t.Inquery.Infnet.tk_pruned;
  Alcotest.(check bool) "identical" true (got = reference source dict q ~k:3)

let test_edge_ks () =
  let source, dict = make () in
  let q = Inquery.Query.parse_exn "#sum( apple banana )" in
  let empty, _, _ = Inquery.Infnet.eval_topk source dict ~k:0 q in
  Alcotest.(check int) "k = 0" 0 (List.length empty);
  let all, _, _ = Inquery.Infnet.eval_topk source dict ~k:100 q in
  Alcotest.(check bool) "k > matches" true (all = reference source dict q ~k:100);
  Alcotest.(check bool) "negative k" true
    (match Inquery.Infnet.eval_topk source dict ~k:(-1) q with
    | _ -> false
    | exception Invalid_argument _ -> true);
  let oov, _, _ = Inquery.Infnet.eval_topk source dict ~k:5 (Inquery.Query.parse_exn "zzz") in
  Alcotest.(check int) "oov only" 0 (List.length oov)

(* A collection big enough for multi-block records: 600 docs, a dense
   near-zero-idf term everywhere and a rare high-tf term. *)
let big_docs =
  List.init 600 (fun d ->
      (* The rare term clusters in the first skip block so pruning can
         jump the filler cursor's remaining blocks wholesale — cursors
         decode whole blocks, so only clean block skips reduce the
         decode counter. *)
      (d, if d < 18 then "filler rare rare rare rare rare" else "filler"))

let test_pruning_decodes_fewer () =
  let source, dict = source_of_docs big_docs in
  let q = Inquery.Query.parse_exn "#sum( rare filler )" in
  let got, _, t = Inquery.Infnet.eval_topk source dict ~audit:true ~k:5 q in
  Alcotest.(check bool) "pruned path" true t.Inquery.Infnet.tk_pruned;
  Alcotest.(check int) "total = sum of df" 618 t.Inquery.Infnet.tk_postings_total;
  Alcotest.(check bool) "decodes strictly fewer" true
    (t.Inquery.Infnet.tk_postings_decoded < t.Inquery.Infnet.tk_postings_total);
  Alcotest.(check bool) "identical" true (got = reference source dict q ~k:5)

let test_should_stop () =
  let source, dict = source_of_docs big_docs in
  let q = Inquery.Query.parse_exn "#sum( rare filler )" in
  let calls = ref 0 in
  let stop (_ : Inquery.Infnet.stats) =
    incr calls;
    !calls > 3
  in
  let ranked, _, t = Inquery.Infnet.eval_topk source dict ~should_stop:stop ~k:5 q in
  Alcotest.(check bool) "stopped early" true t.Inquery.Infnet.tk_stopped;
  Alcotest.(check bool) "partial results bounded" true (List.length ranked <= 5)

let test_v1_records_still_exact () =
  (* Force every record back to the v1 layout: the pruned path loses the
     max_tf header (bound degrades) but results stay bit-identical. *)
  let source, dict = source_of_docs big_docs in
  let v1_source =
    {
      source with
      Inquery.Infnet.fetch =
        (fun e ->
          Option.map
            (fun r ->
              Inquery.Postings.encode_v1
                (List.map
                   (fun dp -> (dp.Inquery.Postings.doc, dp.Inquery.Postings.positions))
                   (Inquery.Postings.decode r)))
            (source.Inquery.Infnet.fetch e));
    }
  in
  let q = Inquery.Query.parse_exn "#sum( rare filler )" in
  let got, _, t = Inquery.Infnet.eval_topk v1_source dict ~audit:true ~k:5 q in
  Alcotest.(check bool) "pruned path still runs" true t.Inquery.Infnet.tk_pruned;
  Alcotest.(check bool) "identical over v1 records" true
    (got = reference v1_source dict q ~k:5)

(* alpha in every second document, beta in every third. *)
let alpha_beta_docs =
  List.init 400 (fun d ->
      ( d,
        (if d mod 2 = 0 then "alpha " else "")
        ^ (if d mod 3 = 0 then "beta " else "")
        ^ "filler" ))

let test_intersect_charges_once () =
  (* k >= matches: the heap never fills, nothing prunes, so every
     document in either record is rescored once — exactly what the
     exhaustive plan charges. *)
  let source, dict = source_of_docs alpha_beta_docs in
  let q = Inquery.Query.parse_exn "#and( alpha beta )" in
  let run plan = Inquery.Infnet.eval_topk source dict ~audit:true ~plan ~k:400 q in
  let got, st, t = run (Inquery.Planner.Forced Inquery.Planner.Intersect) in
  let expect, ex, _ = run (Inquery.Planner.Forced Inquery.Planner.Exhaustive) in
  Alcotest.(check bool) "intersect ran" true (t.Inquery.Infnet.tk_plan = Inquery.Planner.Intersect);
  Alcotest.(check bool) "identical" true (got = expect);
  Alcotest.(check int) "exhaustive charges every posting" 334 ex.Inquery.Infnet.postings_scored;
  Alcotest.(check int) "intersect charges each posting once" ex.Inquery.Infnet.postings_scored
    st.Inquery.Infnet.postings_scored

(* --- property: eval_topk = first k of exhaustive, random everything --- *)

let vocab = [| "alpha"; "beta"; "gamma"; "delta"; "echo"; "foxtrot"; "golf"; "hotel" |]

let gen_docs =
  QCheck.Gen.(list_size (int_range 1 40) (list_size (int_range 1 12) (int_range 0 7)))

let gen_query =
  QCheck.Gen.(
    let term = map (fun i -> vocab.(i)) (int_range 0 7) in
    let terms lo hi = list_size (int_range lo hi) term in
    frequency
      [
        (2, map (fun t -> t) term);
        (4, map (fun ts -> "#sum( " ^ String.concat " " ts ^ " )") (terms 2 6));
        (3,
          map
            (fun wts ->
              let parts = List.map (fun (w, t) -> w ^ " " ^ t) wts in
              "#wsum( " ^ String.concat " " parts ^ " )")
            (list_size (int_range 2 5) (pair (oneofl [ "1"; "2"; "3"; "-0.5" ]) term)));
        (1, map (fun ts -> "#and( " ^ String.concat " " ts ^ " )") (terms 2 3));
        (1, map (fun ts -> "#or( " ^ String.concat " " ts ^ " )") (terms 2 3));
        (1, map (fun t -> "#not( " ^ t ^ " )") term);
        (1,
          map2
            (fun a b -> Printf.sprintf "#phrase( %s %s )" a b)
            term term);
        (1, map2 (fun a b -> Printf.sprintf "#od3( %s %s )" a b) term term);
        (1, map2 (fun a b -> Printf.sprintf "#uw5( %s %s )" a b) term term);
        (1,
          map2
            (fun ts (a, b) ->
              Printf.sprintf "#sum( %s #phrase( %s %s ) )" (String.concat " " ts) a b)
            (terms 1 3) (pair term term));
      ])

(* Each plan charges a posting at most once, so the planned run never
   charges more than the exhaustive one. *)
let prop_topk_is_first_k =
  QCheck.Test.make ~name:"eval_topk = first k of exhaustive eval_daat" ~count:300
    (QCheck.make QCheck.Gen.(triple gen_docs gen_query (int_range 0 12)))
    (fun (docs, query, k) ->
      let docs =
        List.mapi (fun i words -> (i, String.concat " " (List.map (Array.get vocab) words))) docs
      in
      let source, dict = source_of_docs docs in
      let q = Inquery.Query.parse_exn query in
      let expect = reference source dict q ~k in
      let got, st, _ = Inquery.Infnet.eval_topk source dict ~audit:true ~k q in
      let _, ex, _ =
        Inquery.Infnet.eval_topk source dict
          ~plan:(Inquery.Planner.Forced Inquery.Planner.Exhaustive) ~k q
      in
      got = expect
      && st.Inquery.Infnet.postings_scored <= ex.Inquery.Infnet.postings_scored)

let suite =
  List.map
    (fun q -> Alcotest.test_case ("identical: " ^ q) `Quick (check_identical q))
    (pruned_queries @ intersect_queries @ fallback_queries)
  @ [
      Alcotest.test_case "pruned path runs on flat shapes" `Quick test_pruned_path_runs;
      Alcotest.test_case "intersect shapes" `Quick test_intersect_shapes;
      Alcotest.test_case "fallback shapes" `Quick test_fallback_shapes;
      Alcotest.test_case "forced plans identical" `Quick test_forced_plans_identical;
      Alcotest.test_case "exhaustive flag" `Quick test_exhaustive_flag;
      Alcotest.test_case "edge ks" `Quick test_edge_ks;
      Alcotest.test_case "pruning decodes fewer" `Quick test_pruning_decodes_fewer;
      Alcotest.test_case "should_stop cuts evaluation" `Quick test_should_stop;
      Alcotest.test_case "v1 records still exact" `Quick test_v1_records_still_exact;
      Alcotest.test_case "intersect charges each posting once" `Quick
        test_intersect_charges_once;
      QCheck_alcotest.to_alcotest prop_topk_is_first_k;
    ]
