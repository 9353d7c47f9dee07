(* Open-loop replay of a measured op stream on the simulated clock.

   Each user op's simulated service time is taken in stream order;
   Poisson arrivals from the seed are then fed to a single FIFO server,
   and each op's response time counts from when it was due.  Background
   work (ingestion merges) occupies the server right after the op it
   follows in the stream, delaying whatever queued behind it.

   Generator lateness is zero by construction: arrivals are computed,
   not sent.  The replay is exact only while service time depends on op
   order and not on arrival time — no time-triggered work, no breaker
   cooldowns (which need faults) — which holds for every workload here. *)

type job = { service_ms : float; after_ms : float }

(* Unit-rate exponential gaps, [draws] independent arrival sequences of
   [n] each.  Arrivals at rate [r] are prefix sums divided by [r], so
   every rate sees the same arrival pattern and response times can only
   grow with the rate. *)
let unit_gaps ~seed ~draws n =
  let rng = Util.Rng.create ~seed in
  Array.init draws (fun _ -> Array.init n (fun _ -> -.Float.log (1.0 -. Util.Rng.float rng 1.0)))

type outcome = { p50_ms : float; p99_ms : float; tail_p99_ms : float; utilisation : float }

(* Percentiles pool every arrival sequence's response times; the tail is
   the last quarter of each sequence.  [all] and [tail] are scratch
   buffers reused across calls, so a capacity search allocates nothing. *)
type scratch = { all : float array; tail : float array }

let scratch ~draws n = { all = Array.make (draws * n) 0.0; tail = Array.make (draws * (n / 4)) 0.0 }

let sorted_pct p (a : float array) =
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1)))

let replay ?scratch:sc ~gaps ~rate (jobs : job array) =
  let n = Array.length jobs and q = Array.length jobs / 4 in
  let sc = match sc with Some sc -> sc | None -> scratch ~draws:(Array.length gaps) n in
  let util = ref 0.0 in
  Array.iteri
    (fun d g ->
      let arrival = ref 0.0 and free = ref 0.0 and busy = ref 0.0 in
      for i = 0 to n - 1 do
        arrival := !arrival +. (g.(i) *. 1000.0 /. rate);
        let finish = Float.max !arrival !free +. jobs.(i).service_ms in
        let resp = finish -. !arrival in
        sc.all.((d * n) + i) <- resp;
        if i >= n - q then sc.tail.((d * q) + i - (n - q)) <- resp;
        free := finish +. jobs.(i).after_ms;
        busy := !busy +. jobs.(i).service_ms +. jobs.(i).after_ms
      done;
      if !arrival > 0.0 then util := Float.max !util (!busy /. !arrival))
    gaps;
  Array.sort Float.compare sc.all;
  Array.sort Float.compare sc.tail;
  {
    p50_ms = sorted_pct 50.0 sc.all;
    p99_ms = sorted_pct 99.0 sc.all;
    tail_p99_ms = sorted_pct 99.0 sc.tail;
    utilisation = !util;
  }

(* A rate is sustainable when its p99 meets the SLO and the backlog is
   not growing: the server is busy less than all of the time and the
   last quarter of the stream meets the SLO too. *)
let meets ~slo_ms o = o.p99_ms <= slo_ms && o.tail_p99_ms <= slo_ms && o.utilisation < 1.0

(* Highest sustainable offered rate, by bisection (response times are
   monotone in the rate).  0 when even an idle server misses the SLO. *)
let capacity ~gaps ~slo_ms jobs =
  let busy = Array.fold_left (fun a j -> a +. j.service_ms +. j.after_ms) 0.0 jobs in
  let span = Array.fold_left (fun a g -> Float.max a (Array.fold_left ( +. ) 0.0 g)) 0.0 gaps in
  (* every sequence's utilisation is below 1 up to this rate *)
  let hi = if busy = 0.0 then 1e9 else span *. 1000.0 /. busy in
  let sc = scratch ~draws:(Array.length gaps) (Array.length jobs) in
  let ok r = meets ~slo_ms (replay ~scratch:sc ~gaps ~rate:r jobs) in
  if not (ok (hi *. 1e-6)) then 0.0
  else begin
    let lo = ref (hi *. 1e-6) and hi = ref hi in
    for _ = 1 to 40 do
      let mid = 0.5 *. (!lo +. !hi) in
      if ok mid then lo := mid else hi := mid
    done;
    !lo
  end
