(* Named measurements, order statistics and the result line. *)

type t = { name : string; unit_ : string; value : float }

let v name unit_ value = { name; unit_; value }

(* Nearest-rank percentile of an unsorted sample; 0 for an empty one. *)
let percentile p xs =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))
  end

(* The lower median of an even sample: always an observed value. *)
let median xs = percentile 50.0 xs

(* A percentile of the passes' samples pooled: the machine's speed
   drifts over tens of seconds, and a run's figure should average over
   that drift rather than pick one side of it. *)
let pooled p samples = percentile p (Array.concat samples)

let ratio num den = if den = 0.0 then 0.0 else num /. den
let per num den = ratio (float_of_int num) (float_of_int den)

(* Every measured float is printed with all its digits: %.17g round-trips. *)
let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.17g" x

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let result_line ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun m ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
          (json_float m.value) (json_string m.unit_))
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed (String.concat ", " body)

(* Host time.  [Vfs.Clock.Monotonic] is the repo's fenced-off real clock;
   everything else in [Vfs.Clock] is simulated. *)
let now_ns = Vfs.Clock.Monotonic.now_ns
let ms_between a b = Int64.to_float (Int64.sub b a) /. 1e6
let s_between a b = Int64.to_float (Int64.sub b a) /. 1e9

(* Wall and process-CPU seconds of one phase. *)
type phase = { wall_s : float; cpu_s : float }

let timed f =
  let w0 = now_ns () and c0 = Sys.time () in
  let r = f () in
  let w1 = now_ns () and c1 = Sys.time () in
  (r, { wall_s = s_between w0 w1; cpu_s = c1 -. c0 })

let add_phase a b = { wall_s = a.wall_s +. b.wall_s; cpu_s = a.cpu_s +. b.cpu_s }
let no_phase = { wall_s = 0.0; cpu_s = 0.0 }

(* Simulated time of a clock interval, by component. *)
let sim_since clock (before : Vfs.Clock.snapshot) =
  Vfs.Clock.diff ~later:(Vfs.Clock.snapshot clock) ~earlier:before

(* OCaml runtime counters over an interval. *)
type gc = { alloc_words : float; promoted_words : float; major : int }

let gc_now () =
  let s = Gc.quick_stat () in
  {
    alloc_words = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words;
    promoted_words = s.Gc.promoted_words;
    major = s.Gc.major_collections;
  }

let gc_since (g : gc) =
  let n = gc_now () in
  {
    alloc_words = n.alloc_words -. g.alloc_words;
    promoted_words = n.promoted_words -. g.promoted_words;
    major = n.major - g.major;
  }

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

let kb_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1024.0

(* Progress on stderr, stamped with host seconds since start. *)
let t_start = now_ns ()
let log fmt =
  Printf.ksprintf (fun m -> Printf.eprintf "[%7.2fs] %s\n%!" (s_between t_start (now_ns ())) m) fmt
