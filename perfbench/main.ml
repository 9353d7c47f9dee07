(* One benchmark run:

     main.exe --workload <serve-wide|ingest-mixed> --seed <n>
              --seconds <s> --trace <0|1> [--tiny]

   Prints every metric by name with its unit, then, as the last line,
   the JSON result: end-to-end metrics with --trace 0, per-layer metrics
   (from the traced run) with --trace 1.  The traced run also writes its
   spans to .bench_out/.  Exits non-zero when a durability or audit
   check breaks. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload <serve-wide|ingest-mixed> --seed <n> --seconds <s> \
     --trace <0|1> [--tiny]";
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let tiny = ref false in
  let rec parse = function
    | "--workload" :: v :: rest ->
      workload := Some v;
      parse rest
    | "--seed" :: v :: rest ->
      seed := int_of_string_opt v;
      parse rest
    | "--seconds" :: v :: rest ->
      seconds := float_of_string_opt v;
      parse rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
      trace := Some (v = "1");
      parse rest
    | "--tiny" :: rest ->
      tiny := true;
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some seconds, Some trace when List.mem w Perfbench.Workload.names ->
    let trace_file =
      if trace then begin
        (try Sys.mkdir ".bench_out" 0o755 with Sys_error _ -> ());
        Some (Printf.sprintf ".bench_out/trace-%s-%d.jsonl" w seed)
      end
      else None
    in
    let r = Perfbench.Workload.run w ~seed ~seconds ~trace ~tiny:!tiny ~trace_file in
    let catalogue = if trace then Perfbench.Report.per_layer else Perfbench.Report.end_to_end in
    let metrics = Perfbench.Report.metrics r catalogue in
    Printf.printf "workload %s  seed %d  attempted %d  failed %d\n" w seed r.attempted r.failed;
    List.iter
      (fun m -> Printf.printf "  %-34s %16.6f %s\n" m.Perfbench.Metric.name m.value m.unit_)
      metrics;
    List.iter (fun m -> Printf.eprintf "FATAL: %s\n" m) r.fatal;
    let correct = r.fatal = [] && r.failed = 0 in
    print_endline
      (Perfbench.Metric.result_line ~correct ~attempted:r.attempted ~failed:r.failed metrics);
    if r.fatal <> [] then exit 1
  | _ -> usage ()
