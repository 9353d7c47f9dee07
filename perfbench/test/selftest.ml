(* Self-tests of the benchmark, every workload at its tiny size:
   - every metric BENCHMARK.json names is printed with its unit;
   - every deterministic metric repeats bit-for-bit under one seed;
   - another seed generates other inputs;
   - the output checks count fabricated failures. *)

open Perfbench

let seconds = 0.2

let run w seed = Workload.run w ~seed ~seconds ~trace:true ~tiny:true ~trace_file:None

(* ---- BENCHMARK.json names its metrics; the catalogue must match ---- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The ("name", "unit") pairs of one top-level list of BENCHMARK.json. *)
let benchmark_metrics key =
  let text = read_file "../../BENCHMARK.json" in
  let start = Str_find.find text (Printf.sprintf "\"%s\"" key) in
  let stop = String.index_from text start ']' in
  let section = String.sub text start (stop - start) in
  let rec objects from acc =
    match String.index_from_opt section from '{' with
    | None -> List.rev acc
    | Some i ->
      let j = String.index_from section i '}' in
      objects (j + 1) (String.sub section i (j - i + 1) :: acc)
  in
  let field obj f =
    let k = Str_find.find obj (Printf.sprintf "\"%s\"" f) in
    let q1 = String.index_from obj (String.index_from obj k ':') '"' in
    let q2 = String.index_from obj (q1 + 1) '"' in
    String.sub obj (q1 + 1) (q2 - q1 - 1)
  in
  List.map (fun o -> (field o "name", field o "unit")) (objects 0 [])

let test_catalogue () =
  Alcotest.(check (list (pair string string)))
    "end_to_end" (benchmark_metrics "end_to_end") Report.end_to_end;
  Alcotest.(check (list (pair string string)))
    "per_layer" (benchmark_metrics "per_layer") Report.per_layer

(* ---- the command prints every metric with its unit ---------------- *)

let test_prints w () =
  List.iter
    (fun (trace, catalogue) ->
      let out = Printf.sprintf "prints-%s-%d.out" w trace in
      let cmd =
        Printf.sprintf
          "../main.exe --workload %s --seed 3 --seconds %g --trace %d --tiny > %s 2>/dev/null"
          w seconds trace out
      in
      Alcotest.(check int) "exit code" 0 (Sys.command cmd);
      let lines = String.split_on_char '\n' (String.trim (read_file out)) in
      let last = List.nth lines (List.length lines - 1) in
      Alcotest.(check bool)
        "result line" true
        (String.starts_with ~prefix:"{\"correct\": true" last);
      List.iter
        (fun (name, unit_) ->
          let key = Printf.sprintf "\"%s\": {\"value\": " name in
          let at = Str_find.find last key in
          let rest = String.sub last at (String.length last - at) in
          let close = String.index rest '}' in
          Alcotest.(check bool)
            (name ^ " has its unit") true
            (Str_find.contains (String.sub rest 0 close) (Printf.sprintf "\"unit\": \"%s\"" unit_));
          Alcotest.(check bool)
            (name ^ " printed by name") true
            (List.exists
               (fun l ->
                 match String.split_on_char ' ' l |> List.filter (( <> ) "") with
                 | n :: _ :: u :: _ -> n = name && u = unit_
                 | _ -> false)
               lines))
        catalogue;
      Sys.remove out)
    [ (0, Report.end_to_end); (1, Report.per_layer) ]

(* ---- determinism and seeds ---------------------------------------- *)

let test_repeat w () =
  let a = run w 5 and b = run w 5 in
  List.iter
    (fun name ->
      let x = Report.get a name and y = Report.get b name in
      Alcotest.(check int64)
        (name ^ " repeats bit-for-bit") (Int64.bits_of_float x) (Int64.bits_of_float y))
    Report.deterministic;
  Alcotest.(check bool) "work was measured" true (Report.get a "sim_ms_per_op" > 0.0);
  Alcotest.(check int) "no failed ops" 0 a.Report.failed;
  Alcotest.(check (list string)) "no fatal checks" [] a.Report.fatal;
  Alcotest.(check string) "same seed, same inputs" a.Report.inputs b.Report.inputs;
  Alcotest.(check string)
    "the digest is of the inputs" a.Report.inputs
    (Workload.inputs w ~seed:5 ~tiny:true);
  Alcotest.(check bool)
    "another seed, other inputs" true
    (a.Report.inputs <> Workload.inputs w ~seed:6 ~tiny:true)

(* ---- the checks count failures ------------------------------------ *)

let r doc score = { Inquery.Ranking.doc; score }

let test_ranking_mismatch () =
  let truth = [ r 4 0.625; r 9 0.5 ] in
  let oracle _ = truth in
  let queries = [| "a"; "b"; "c"; "d" |] in
  let ranked =
    [|
      truth;
      [ r 4 (Float.succ 0.625); r 9 0.5 ] (* one ulp off *);
      [ r 9 0.625; r 4 0.5 ] (* documents swapped *);
      [ r 4 0.625 ] (* truncated *);
    |]
  in
  let failed, mismatched = Serve.failures ~oracle queries ~ranked ~bad:(Array.make 4 false) in
  Alcotest.(check (pair int int)) "three fabricated mismatches" (3, 3) (failed, mismatched);
  let failed, _ =
    Serve.failures ~oracle queries ~ranked:(Array.make 4 truth) ~bad:[| false; true; false; false |]
  in
  Alcotest.(check int) "a degraded op fails" 1 failed

let test_missing_document () =
  let check = Ingest_mixed.missing_or_duplicated in
  Alcotest.(check int) "all present" 0 (check ~acked:[ 0; 1; 2 ] ~present:[ 0; 1; 2 ]);
  Alcotest.(check int) "one missing" 1 (check ~acked:[ 0; 1; 2 ] ~present:[ 0; 2 ]);
  Alcotest.(check int) "one doubled" 1 (check ~acked:[ 0; 1; 2 ] ~present:[ 0; 1; 1; 2 ])

let () =
  Alcotest.run "perfbench"
    [
      ("catalogue", [ Alcotest.test_case "matches BENCHMARK.json" `Quick test_catalogue ]);
      ( "checks",
        [
          Alcotest.test_case "fabricated ranking mismatch fails" `Quick test_ranking_mismatch;
          Alcotest.test_case "missing acked document fails" `Quick test_missing_document;
        ] );
      ( "workloads",
        List.concat_map
          (fun w ->
            [
              Alcotest.test_case (w ^ " prints every metric") `Slow (test_prints w);
              Alcotest.test_case (w ^ " repeats and varies with the seed") `Slow (test_repeat w);
            ])
          Workload.names );
    ]
