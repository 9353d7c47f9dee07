(* The benchmark's workloads, by name. *)

let names = [ "serve-wide"; "ingest-mixed" ]

let run name ~seed ~seconds ~trace ~tiny ~trace_file =
  match name with
  | "serve-wide" -> Serve.run ~seed ~seconds ~trace ~tiny ~trace_file
  | "ingest-mixed" -> Ingest_mixed.run ~seed ~seconds ~trace ~tiny ~trace_file
  | other -> invalid_arg ("unknown workload " ^ other)

(* Digest of the inputs a seed generates. *)
let inputs name ~seed ~tiny =
  match name with
  | "serve-wide" -> Serve.inputs ~seed ~tiny
  | "ingest-mixed" -> Ingest_mixed.inputs ~seed ~tiny
  | other -> invalid_arg ("unknown workload " ^ other)
