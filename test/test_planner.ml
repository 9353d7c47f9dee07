(* Cost-based query planner: record_stats across both postings layouts
   (cross-checked against a full decode), the cost model's shape and
   plan decisions, and forced-plan bit-identity over the preset
   collections — serial, across domains ([REPRO_TEST_DOMAINS] pins the
   counts, as in test_parallel), and against a pinned epoch. *)

(* --- record_stats across the layouts ----------------------------- *)

(* dfs in v1, and in one-block and many-block v2. *)
let tier_dfs = [ 3; 20; 200; 1500 ]

let entries_of_df df =
  List.init df (fun i -> (i * 3, List.init (1 + (i mod 3)) (fun j -> (i * 7) + (j * 2) + 1)))

let check_stats_of_df df () =
  let r = Inquery.Postings.encode (entries_of_df df) in
  let s = Inquery.Postings.record_stats r in
  Alcotest.(check string)
    "tier matches the encoder's choice"
    (Inquery.Postings.tier_name (Inquery.Postings.tier_of_df df))
    (Inquery.Postings.tier_name s.Inquery.Postings.rs_tier);
  Alcotest.(check bool) "record validates" true
    (Inquery.Postings.validate r = Ok ());
  (* Everything the header claims must agree with a full decode. *)
  let decoded = Inquery.Postings.decode r in
  Alcotest.(check int) "df" (List.length decoded) s.Inquery.Postings.rs_df;
  let cf =
    List.fold_left
      (fun acc dp -> acc + List.length dp.Inquery.Postings.positions)
      0 decoded
  in
  Alcotest.(check int) "cf" cf s.Inquery.Postings.rs_cf;
  let true_max_tf =
    List.fold_left (fun acc dp -> max acc (List.length dp.Inquery.Postings.positions)) 0 decoded
  in
  (match s.Inquery.Postings.rs_max_tf with
  | None ->
    Alcotest.(check bool) "only v1 lacks max_tf" true
      (s.Inquery.Postings.rs_tier = Inquery.Postings.V1)
  | Some m -> Alcotest.(check int) "max_tf" true_max_tf m);
  if s.Inquery.Postings.rs_tier = Inquery.Postings.V1 then begin
    Alcotest.(check int) "v1: no skip blocks" 0 s.Inquery.Postings.rs_blocks;
    Alcotest.(check int) "v1: no position region split" 0 s.Inquery.Postings.rs_pos_bytes;
    Alcotest.(check bool) "v1: doc bytes cover the payload" true
      (s.Inquery.Postings.rs_doc_bytes > 0
      && s.Inquery.Postings.rs_doc_bytes <= Bytes.length r)
  end
  else begin
    Alcotest.(check bool) "v2: at least one skip block" true
      (s.Inquery.Postings.rs_blocks >= 1);
    Alcotest.(check bool) "v2: regions positive and within the record" true
      (s.Inquery.Postings.rs_doc_bytes > 0
      && s.Inquery.Postings.rs_pos_bytes > 0
      && s.Inquery.Postings.rs_doc_bytes + s.Inquery.Postings.rs_pos_bytes
         <= Bytes.length r)
  end

let test_stats_v1_encoder () =
  (* encode_v1 at any df must parse as a v1 record. *)
  let r = Inquery.Postings.encode_v1 (entries_of_df 40) in
  let s = Inquery.Postings.record_stats r in
  Alcotest.(check string) "tier" "v1" (Inquery.Postings.tier_name s.Inquery.Postings.rs_tier);
  Alcotest.(check int) "df" 40 s.Inquery.Postings.rs_df;
  Alcotest.(check bool) "no max_tf" true (s.Inquery.Postings.rs_max_tf = None)

(* --- the cost model on synthetic statistics ----------------------- *)

let mk_stats ~df ~blocks ~doc_bytes ~pos_bytes =
  {
    Inquery.Postings.rs_tier =
      (if blocks = 0 then Inquery.Postings.V1 else Inquery.Postings.Vbyte);
    rs_df = df;
    rs_cf = df;
    rs_max_tf = (if blocks = 0 then None else Some 3);
    rs_blocks = blocks;
    rs_doc_bytes = doc_bytes;
    rs_pos_bytes = pos_bytes;
  }

(* A rare term and a common one whose record dwarfs it — the regime a
   cost model exists to tell apart. *)
let synth_stats term =
  match term with
  | "rare" -> Some (mk_stats ~df:6 ~blocks:0 ~doc_bytes:24 ~pos_bytes:0)
  | "common" -> Some (mk_stats ~df:20000 ~blocks:160 ~doc_bytes:80000 ~pos_bytes:40000)
  | "mid" -> Some (mk_stats ~df:300 ~blocks:3 ~doc_bytes:1200 ~pos_bytes:600)
  | _ -> None

let parse = Inquery.Query.parse_exn

let test_shapes () =
  let shape q = Inquery.Planner.shape_of (parse q) in
  Alcotest.(check bool) "term" true (shape "rare" = Inquery.Planner.Flat);
  Alcotest.(check bool) "sum" true (shape "#sum( rare common )" = Inquery.Planner.Flat);
  Alcotest.(check bool) "wsum" true (shape "#wsum( 2 rare 1 common )" = Inquery.Planner.Flat);
  Alcotest.(check bool) "wsum zero total is not flat" true
    (shape "#wsum( 0 rare 0 common )" = Inquery.Planner.Other);
  Alcotest.(check bool) "wsum negative weight is not flat" true
    (shape "#wsum( 1.0 rare -0.5 common )" = Inquery.Planner.Other);
  Alcotest.(check bool) "and" true
    (shape "#and( rare common )" = Inquery.Planner.Conjunctive);
  Alcotest.(check bool) "phrase" true
    (shape "#phrase( rare common )" = Inquery.Planner.Positional);
  Alcotest.(check bool) "od" true
    (shape "#od3( rare common )" = Inquery.Planner.Positional);
  Alcotest.(check bool) "uw" true
    (shape "#uw5( rare common )" = Inquery.Planner.Positional);
  Alcotest.(check bool) "or" true (shape "#or( rare common )" = Inquery.Planner.Other);
  Alcotest.(check bool) "nested" true
    (shape "#sum( rare #and( mid common ) )" = Inquery.Planner.Other)

let test_applicable () =
  let app q = Inquery.Planner.applicable (parse q) in
  Alcotest.(check bool) "flat" true
    (app "#sum( rare common )"
    = [ Inquery.Planner.Maxscore; Inquery.Planner.Exhaustive ]);
  Alcotest.(check bool) "conjunctive" true
    (app "#and( rare common )"
    = [ Inquery.Planner.Intersect; Inquery.Planner.Exhaustive ]);
  Alcotest.(check bool) "positional" true
    (app "#phrase( rare common )"
    = [ Inquery.Planner.Intersect; Inquery.Planner.Exhaustive ]);
  Alcotest.(check bool) "other" true (app "#or( rare common )" = [ Inquery.Planner.Exhaustive ])

let test_decide_conjunctive () =
  (* A rare driver makes intersection-first strictly cheaper than
     decoding the common term's whole record. *)
  let q = parse "#and( rare common )" in
  let d = Inquery.Planner.decide ~stats_of:synth_stats ~k:10 q in
  Alcotest.(check bool) "picks intersect" true (d.Inquery.Planner.e_plan = Inquery.Planner.Intersect);
  let ex = Inquery.Planner.estimate ~stats_of:synth_stats ~k:10 q Inquery.Planner.Exhaustive in
  Alcotest.(check bool) "strictly cheaper than exhaustive" true
    (d.Inquery.Planner.e_bytes < ex.Inquery.Planner.e_bytes)

let test_decide_positional () =
  let q = parse "#phrase( rare common )" in
  let d = Inquery.Planner.decide ~stats_of:synth_stats ~k:10 q in
  Alcotest.(check bool) "picks intersect" true (d.Inquery.Planner.e_plan = Inquery.Planner.Intersect);
  let ex = Inquery.Planner.estimate ~stats_of:synth_stats ~k:10 q Inquery.Planner.Exhaustive in
  Alcotest.(check bool) "strictly cheaper than exhaustive" true
    (d.Inquery.Planner.e_bytes < ex.Inquery.Planner.e_bytes)

let test_decide_flat_and_other () =
  let flat = Inquery.Planner.decide ~stats_of:synth_stats ~k:10 (parse "#sum( rare common )") in
  Alcotest.(check bool) "flat picks maxscore" true
    (flat.Inquery.Planner.e_plan = Inquery.Planner.Maxscore);
  let other = Inquery.Planner.decide ~stats_of:synth_stats ~k:10 (parse "#or( rare common )") in
  Alcotest.(check bool) "other picks exhaustive" true
    (other.Inquery.Planner.e_plan = Inquery.Planner.Exhaustive)

let test_inapplicable_costed_as_exhaustive () =
  let q = parse "#or( rare common )" in
  let ms = Inquery.Planner.estimate ~stats_of:synth_stats ~k:10 q Inquery.Planner.Maxscore in
  let ex = Inquery.Planner.estimate ~stats_of:synth_stats ~k:10 q Inquery.Planner.Exhaustive in
  Alcotest.(check int) "bytes" ex.Inquery.Planner.e_bytes ms.Inquery.Planner.e_bytes;
  Alcotest.(check int) "blocks" ex.Inquery.Planner.e_blocks ms.Inquery.Planner.e_blocks

let test_absent_positional_member_is_free () =
  (* A positional operator with an unindexed member matches nothing;
     the intersect plan prices that at zero. *)
  let q = parse "#phrase( common nosuchterm )" in
  let d = Inquery.Planner.decide ~stats_of:synth_stats ~k:10 q in
  Alcotest.(check bool) "intersect" true (d.Inquery.Planner.e_plan = Inquery.Planner.Intersect);
  Alcotest.(check int) "zero bytes" 0 d.Inquery.Planner.e_bytes

let test_plan_names () =
  List.iter
    (fun p ->
      Alcotest.(check bool) "round-trips" true
        (Inquery.Planner.plan_of_string (Inquery.Planner.plan_name p) = Some p))
    [ Inquery.Planner.Exhaustive; Inquery.Planner.Maxscore; Inquery.Planner.Intersect ];
  Alcotest.(check bool) "unknown" true (Inquery.Planner.plan_of_string "bogus" = None)

(* --- forced-plan bit-identity over the presets --------------------- *)

let scale = 0.01
let preset_names = [ "cacm"; "legal"; "tipster1"; "tipster" ]
let plans = [ Inquery.Planner.Exhaustive; Inquery.Planner.Maxscore; Inquery.Planner.Intersect ]

let prepared_tbl : (string, Core.Experiment.prepared * Core.Engine.t * string list) Hashtbl.t =
  Hashtbl.create 4

let setup_of name =
  match Hashtbl.find_opt prepared_tbl name with
  | Some s -> s
  | None ->
    let model = Collections.Presets.find ~scale name in
    let prepared = Core.Experiment.prepare model in
    let engine = Core.Experiment.open_engine prepared Core.Experiment.Mneme_cache in
    let queries =
      Collections.Querygen.generate model (Collections.Presets.planner_queries model)
    in
    let s = (prepared, engine, queries) in
    Hashtbl.add prepared_tbl name s;
    s

let fingerprint (r : Core.Engine.topk_result) =
  List.map
    (fun rk -> (rk.Inquery.Ranking.doc, Int64.bits_of_float rk.Inquery.Ranking.score))
    r.Core.Engine.topk_ranked

(* ~audit already raises on any divergence from the exhaustive oracle;
   comparing fingerprints across plans additionally pins the plans to
   each other. *)
let check_query ~k engine q =
  let ex =
    Core.Engine.run_topk_string ~plan:(Inquery.Planner.Forced Inquery.Planner.Exhaustive) ~k
      engine q
  in
  let gold = fingerprint ex in
  List.iter
    (fun p ->
      let r =
        Core.Engine.run_topk_string ~audit:true ~plan:(Inquery.Planner.Forced p) ~k engine q
      in
      Alcotest.(check bool)
        (Printf.sprintf "forced %s identical: %s" (Inquery.Planner.plan_name p) q)
        true
        (fingerprint r = gold))
    plans;
  let auto = Core.Engine.run_topk_string ~audit:true ~k engine q in
  Alcotest.(check bool) ("auto identical: " ^ q) true (fingerprint auto = gold)

let test_presets_forced_plans () =
  List.iter
    (fun name ->
      let _, engine, queries = setup_of name in
      List.iteri (fun i q -> if i < 10 then check_query ~k:10 engine q) queries)
    preset_names

let prop_forced_plans_identical =
  QCheck.Test.make ~name:"forced plans bit-identical on every preset (mixed workload)"
    ~count:60
    (QCheck.make QCheck.Gen.(triple (oneofl preset_names) (int_range 0 49) (int_range 1 12)))
    (fun (name, qi, k) ->
      let _, engine, queries = setup_of name in
      let q = List.nth queries (qi mod List.length queries) in
      let gold =
        fingerprint
          (Core.Engine.run_topk_string
             ~plan:(Inquery.Planner.Forced Inquery.Planner.Exhaustive) ~k engine q)
      in
      List.for_all
        (fun p ->
          fingerprint
            (Core.Engine.run_topk_string ~audit:true ~plan:(Inquery.Planner.Forced p) ~k
               engine q)
          = gold)
        plans)

(* --- multicore: every domain agrees, every plan audited ------------ *)

let domain_counts =
  match Sys.getenv_opt "REPRO_TEST_DOMAINS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some d when d > 0 -> [ d ]
    | _ -> [ 1; 2 ])
  | None -> [ 1; 2 ]

let test_multicore_forced_plans () =
  List.iter
    (fun domains ->
      let work () =
        (* Each domain builds its own collection and sessions: nothing
           shared, so the only way the fingerprints agree is that the
           plans are deterministic and bit-identical. *)
        let model = Collections.Presets.find ~scale "cacm" in
        let prepared = Core.Experiment.prepare model in
        let engine = Core.Experiment.open_engine prepared Core.Experiment.Mneme_cache in
        let queries =
          Collections.Querygen.generate model (Collections.Presets.planner_queries model)
        in
        List.filteri (fun i _ -> i < 6) queries
        |> List.map (fun q ->
               List.map
                 (fun p ->
                   fingerprint
                     (Core.Engine.run_topk_string ~audit:true
                        ~plan:(Inquery.Planner.Forced p) ~k:10 engine q))
                 plans)
      in
      let spawned = List.init domains (fun _ -> Domain.spawn work) in
      match List.map Domain.join spawned with
      | [] -> ()
      | r0 :: rest ->
        List.iteri
          (fun i r ->
            Alcotest.(check bool)
              (Printf.sprintf "domain %d of %d agrees" (i + 2) domains)
              true (r = r0))
          rest)
    domain_counts

(* --- pinned epoch: plans over a snapshot that history moved past --- *)

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

let test_pinned_epoch_plans () =
  let vfs = Vfs.create () in
  let live = Core.Live_index.create_mneme vfs ~file:"plan-pin.mneme" () in
  let texts =
    [
      "alpha beta gamma alpha";
      "beta gamma delta";
      "alpha gamma epsilon";
      "alpha beta beta gamma delta";
      "gamma gamma alpha beta";
      "delta epsilon alpha beta";
    ]
  in
  let ids = List.map (Core.Live_index.add_document live) texts in
  let pin = Core.Live_index.pin live in
  (* Move history past the pin: the snapshot must keep answering
     identically under every plan. *)
  ignore (Core.Live_index.delete_document live (List.hd ids));
  ignore (Core.Live_index.add_document live "zeta eta theta");
  (* An Infnet source over the pinned snapshot. *)
  let dict = Inquery.Dictionary.create () in
  List.iter
    (fun (t, _, _) -> ignore (Inquery.Dictionary.intern dict t))
    (Core.Live_index.pin_directory pin);
  let view = Core.Live_index.pinned live pin in
  let source =
    {
      Inquery.Infnet.fetch =
        (fun e -> Core.Live_index.record view e.Inquery.Dictionary.term);
      n_docs = view.n_docs;
      max_doc_id = max 0 (view.next_doc - 1);
      avg_doc_len = float_of_int view.total_len /. float_of_int (max 1 view.n_docs);
      doc_len = (fun d -> Option.value (view.doc_len d) ~default:0);
    }
  in
  List.iter
    (fun query ->
      let q = parse query in
      let daat, _ = Inquery.Infnet.eval_daat source dict q in
      let expect = take 4 (List.sort rank_order daat) in
      List.iter
        (fun p ->
          let got, _, _ =
            Inquery.Infnet.eval_topk source dict ~audit:true
              ~plan:(Inquery.Planner.Forced p) ~k:4 q
          in
          Alcotest.(check bool)
            (Printf.sprintf "pinned forced %s: %s" (Inquery.Planner.plan_name p) query)
            true (got = expect))
        plans;
      let auto, _, _ = Inquery.Infnet.eval_topk source dict ~audit:true ~k:4 q in
      Alcotest.(check bool) ("pinned auto: " ^ query) true (auto = expect))
    [
      "#sum( alpha beta )";
      "#and( alpha gamma )";
      "#phrase( alpha beta )";
      "#od3( alpha gamma )";
      "#uw5( beta alpha )";
      "#or( delta epsilon )";
    ];
  Core.Live_index.release live pin

let suite =
  List.map
    (fun df ->
      Alcotest.test_case
        (Printf.sprintf "record_stats df=%d (%s)" df
           (Inquery.Postings.tier_name (Inquery.Postings.tier_of_df df)))
        `Quick (check_stats_of_df df))
    tier_dfs
  @ [
      Alcotest.test_case "record_stats on encode_v1" `Quick test_stats_v1_encoder;
      Alcotest.test_case "shape classification" `Quick test_shapes;
      Alcotest.test_case "applicable plans" `Quick test_applicable;
      Alcotest.test_case "decide: conjunctive" `Quick test_decide_conjunctive;
      Alcotest.test_case "decide: positional" `Quick test_decide_positional;
      Alcotest.test_case "decide: flat and other" `Quick test_decide_flat_and_other;
      Alcotest.test_case "inapplicable plan costed as exhaustive" `Quick
        test_inapplicable_costed_as_exhaustive;
      Alcotest.test_case "absent positional member is free" `Quick
        test_absent_positional_member_is_free;
      Alcotest.test_case "plan names round-trip" `Quick test_plan_names;
      Alcotest.test_case "presets: forced plans identical" `Quick test_presets_forced_plans;
      QCheck_alcotest.to_alcotest prop_forced_plans_identical;
      Alcotest.test_case "multicore: domains agree on every plan" `Quick
        test_multicore_forced_plans;
      Alcotest.test_case "pinned epoch: plans over a snapshot" `Quick test_pinned_epoch_plans;
    ]
