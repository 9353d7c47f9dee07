(* In-memory spans around the benchmark's calls into each layer.

   A span is (name, start, end, parent, op id); spans of one user op
   share its op id.  Spans are only recorded while [on]; the untraced
   run pays one branch per boundary.  Everything is kept in memory and
   written out once, after measuring. *)

type span = {
  id : int;
  name : string;
  op : int;
  parent : int;  (** -1 at top level *)
  start_ns : int64;
  mutable end_ns : int64;
  mutable counters : (string * float) list;  (** per-op counter diffs *)
}

type t = {
  mutable on : bool;
  mutable op : int;
  mutable next : int;
  mutable stack : span list;
  mutable spans : span list;  (** newest first *)
}

let create () = { on = false; op = -1; next = 0; stack = []; spans = [] }

(* Drop the recorded spans; ids keep counting, so they stay unique
   across everything written from one run. *)
let reset t =
  t.op <- -1;
  t.stack <- [];
  t.spans <- []

let set_op t op = t.op <- op

let open_span t name =
  let parent = match t.stack with p :: _ -> p.id | [] -> -1 in
  let s =
    {
      id = t.next;
      name;
      op = t.op;
      parent;
      start_ns = Metric.now_ns ();
      end_ns = 0L;
      counters = [];
    }
  in
  t.next <- t.next + 1;
  t.stack <- s :: t.stack;
  s

let close_span t s =
  s.end_ns <- Metric.now_ns ();
  (match t.stack with _ :: rest -> t.stack <- rest | [] -> ());
  t.spans <- s :: t.spans

let span t name f =
  if not t.on then f ()
  else begin
    let s = open_span t name in
    match f () with
    | r ->
      close_span t s;
      r
    | exception e ->
      close_span t s;
      raise e
  end

(* Attach counter diffs to the innermost open span (the op's span). *)
let note t counters = match t.stack with s :: _ -> s.counters <- counters @ s.counters | [] -> ()

let spans t = List.rev t.spans
let dur_ns s = Int64.to_float (Int64.sub s.end_ns s.start_ns)

(* Self time: the span minus the time its direct children cover.
   Children of one span never overlap (one thread, strictly nested). *)
let self_ns spans =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (dur_ns s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    spans;
  fun s -> dur_ns s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)

let write_jsonl path spans =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\": %d, \"name\": %s, \"op\": %d, \"parent\": %d, \"start_ns\": %Ld, \"end_ns\": %Ld"
        s.id (Metric.json_string s.name) s.op s.parent s.start_ns s.end_ns;
      if s.counters <> [] then
        Printf.fprintf oc ", \"counters\": {%s}"
          (String.concat ", "
             (List.map
                (fun (k, v) -> Printf.sprintf "%s: %s" (Metric.json_string k) (Metric.json_float v))
                s.counters));
      output_string oc "}\n")
    spans;
  close_out oc
