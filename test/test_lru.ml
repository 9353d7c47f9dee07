(* The one recency list: eviction order, promotion, and a random model
   check of costs, budget and counters. *)

let order lru = List.rev (Util.Lru.fold lru ~init:[] ~f:(fun acc k _ -> k :: acc))
let entries lru = (Util.Lru.stats lru).Util.Cache_stats.resident_entries

let test_basic_add_find () =
  let lru = Util.Lru.create ~capacity:3 in
  Alcotest.(check (option string)) "missing" None (Util.Lru.find lru 1);
  Util.Lru.add lru 1 ~cost:1 "a";
  Alcotest.(check (option string)) "present" (Some "a") (Util.Lru.find lru 1);
  Alcotest.(check int) "length" 1 (entries lru)

let test_eviction_order () =
  let lru = Util.Lru.create ~capacity:2 in
  Util.Lru.add lru 1 ~cost:1 "a";
  Util.Lru.add lru 2 ~cost:1 "b";
  Alcotest.(check (list int)) "no eviction under the budget" [ 2; 1 ] (order lru);
  Util.Lru.add lru 3 ~cost:1 "c";
  Alcotest.(check (list int)) "evicts oldest" [ 3; 2 ] (order lru)

let test_find_promotes () =
  let lru = Util.Lru.create ~capacity:2 in
  Util.Lru.add lru 1 ~cost:1 "a";
  Util.Lru.add lru 2 ~cost:1 "b";
  ignore (Util.Lru.find lru 1);
  (* 2 is now least recently used *)
  Util.Lru.add lru 3 ~cost:1 "c";
  Alcotest.(check bool) "2 evicted" false (Util.Lru.mem lru 2);
  Alcotest.(check bool) "1 survives" true (Util.Lru.mem lru 1)

let test_mem_does_not_promote () =
  let lru = Util.Lru.create ~capacity:2 in
  Util.Lru.add lru 1 ~cost:1 "a";
  Util.Lru.add lru 2 ~cost:1 "b";
  ignore (Util.Lru.mem lru 1);
  Util.Lru.add lru 3 ~cost:1 "c";
  Alcotest.(check bool) "1 still evicts" false (Util.Lru.mem lru 1);
  Alcotest.(check int) "mem counts no reference" 0 (Util.Lru.stats lru).Util.Cache_stats.refs

let test_replace_updates_value () =
  let lru = Util.Lru.create ~capacity:2 in
  Util.Lru.add lru 1 ~cost:1 "a";
  Util.Lru.add lru 1 ~cost:1 "a2";
  Alcotest.(check (option string)) "replaced" (Some "a2") (Util.Lru.find lru 1);
  Alcotest.(check int) "no duplicate" 1 (entries lru)

let test_remove_and_clear () =
  let lru = Util.Lru.create ~capacity:3 in
  Util.Lru.add lru 1 ~cost:1 "a";
  Util.Lru.add lru 2 ~cost:1 "b";
  Alcotest.(check int) "one removed" 1 (Util.Lru.retain lru ~keep:(fun k _ -> k <> 1));
  Alcotest.(check bool) "removed" false (Util.Lru.mem lru 1);
  Alcotest.(check int) "absent key: no-op" 0 (Util.Lru.retain lru ~keep:(fun k _ -> k <> 99));
  Util.Lru.clear lru;
  Alcotest.(check int) "cleared" 0 (entries lru);
  Alcotest.(check int) "both drops invalidate" 2
    (Util.Lru.stats lru).Util.Cache_stats.invalidations

let test_iter_order () =
  let lru = Util.Lru.create ~capacity:3 in
  Util.Lru.add lru 1 ~cost:1 "a";
  Util.Lru.add lru 2 ~cost:1 "b";
  Util.Lru.add lru 3 ~cost:1 "c";
  ignore (Util.Lru.find lru 1);
  Alcotest.(check (list int)) "MRU to LRU" [ 1; 3; 2 ] (order lru)

let test_capacity_validation () =
  Alcotest.check_raises "negative capacity" (Invalid_argument "Lru.create: negative capacity")
    (fun () -> ignore (Util.Lru.create ~capacity:(-1) : (int, int) Util.Lru.t));
  let off = Util.Lru.create ~capacity:0 in
  Util.Lru.add off 1 ~cost:0 "a";
  Alcotest.(check (option string)) "zero capacity disables the cache" None (Util.Lru.find off 1);
  Alcotest.(check int) "nothing resident" 0 (entries off);
  Alcotest.check_raises "negative cost" (Invalid_argument "Lru.add: negative cost") (fun () ->
      Util.Lru.add off 1 ~cost:(-1) "a")

(* Random steps against a list model.  Values are epoch tags; a probe
   with [Some e] purges an entry tagged with any other epoch. *)
type op =
  | Add of int * int * int (* key, cost, tag *)
  | Find of int * int option
  | Mem of int
  | Remove of int
  | Retain of int (* keep tags below *)
  | Clear

let show_op = function
  | Add (k, c, e) -> Printf.sprintf "add %d cost %d tag %d" k c e
  | Find (k, None) -> Printf.sprintf "find %d" k
  | Find (k, Some e) -> Printf.sprintf "find %d at %d" k e
  | Mem k -> Printf.sprintf "mem %d" k
  | Remove k -> Printf.sprintf "remove %d" k
  | Retain e -> Printf.sprintf "retain tags < %d" e
  | Clear -> "clear"

let gen_steps =
  QCheck.Gen.(
    int_range 0 12 >>= fun capacity ->
    let key = int_range 0 7 and tag = int_range 0 2 in
    let op =
      frequency
        [
          (4, map3 (fun k c e -> Add (k, c, e)) key (int_range 0 (capacity + 3)) tag);
          (4, map2 (fun k e -> Find (k, e)) key (opt tag));
          (1, map (fun k -> Mem k) key);
          (1, map (fun k -> Remove k) key);
          (1, map (fun e -> Retain e) tag);
          (1, return Clear);
        ]
    in
    pair (return capacity) (list_size (int_range 1 40) op))

type model = {
  mutable order : (int * (int * int)) list; (* key -> (tag, cost), most recent first *)
  mutable refs : int;
  mutable hits : int;
  mutable evictions : int;
  mutable invalidations : int;
}

let used m = List.fold_left (fun acc (_, (_, c)) -> acc + c) 0 m.order

let drop m keep =
  let kept = List.filter keep m.order in
  m.invalidations <- m.invalidations + List.length m.order - List.length kept;
  m.order <- kept

let rec evict capacity m =
  if used m > capacity then begin
    m.order <- List.filteri (fun i _ -> i < List.length m.order - 1) m.order;
    m.evictions <- m.evictions + 1;
    evict capacity m
  end

let step capacity lru m = function
  | Add (k, cost, e) ->
    Util.Lru.add lru k ~cost e;
    if capacity > 0 then begin
      m.order <- (k, (e, cost)) :: List.remove_assoc k m.order;
      evict capacity m
    end;
    true
  | Find (k, epoch) -> (
    let stale = Option.map (fun e v -> v <> e) epoch in
    let got = Util.Lru.find ?stale lru k in
    m.refs <- m.refs + 1;
    match List.assoc_opt k m.order with
    | Some (e, _) when Option.fold ~none:false ~some:(fun want -> e <> want) epoch ->
      drop m (fun (k', _) -> k' <> k);
      got = None
    | Some (e, cost) ->
      m.hits <- m.hits + 1;
      m.order <- (k, (e, cost)) :: List.remove_assoc k m.order;
      got = Some e
    | None -> got = None)
  | Mem k -> Util.Lru.mem lru k = List.mem_assoc k m.order
  | Remove k ->
    let n = Util.Lru.retain lru ~keep:(fun k' _ -> k' <> k) in
    let before = List.length m.order in
    drop m (fun (k', _) -> k' <> k);
    n = before - List.length m.order
  | Retain below ->
    let n = Util.Lru.retain lru ~keep:(fun _ e -> e < below) in
    let before = List.length m.order in
    drop m (fun (_, (e, _)) -> e < below);
    n = before - List.length m.order
  | Clear ->
    Util.Lru.clear lru;
    drop m (fun _ -> false);
    true

let agrees capacity lru m =
  let listed = Util.Lru.fold lru ~init:[] ~f:(fun acc k e -> (k, e) :: acc) |> List.rev in
  listed = List.map (fun (k, (e, _)) -> (k, e)) m.order
  && (capacity = 0 || used m <= capacity)
  && Util.Lru.stats lru
     = {
         Util.Cache_stats.refs = m.refs;
         hits = m.hits;
         evictions = m.evictions;
         invalidations = m.invalidations;
         resident_bytes = used m;
         resident_entries = List.length m.order;
       }

let prop_against_model =
  QCheck.Test.make ~name:"lru matches reference model" ~count:300
    (QCheck.make
       ~print:(fun (c, ops) ->
         Printf.sprintf "capacity %d: %s" c (String.concat "; " (List.map show_op ops)))
       gen_steps)
    (fun (capacity, ops) ->
      let lru = Util.Lru.create ~capacity in
      let m = { order = []; refs = 0; hits = 0; evictions = 0; invalidations = 0 } in
      List.for_all (fun op -> step capacity lru m op && agrees capacity lru m) ops)

let suite =
  [
    Alcotest.test_case "basic add/find" `Quick test_basic_add_find;
    Alcotest.test_case "eviction order" `Quick test_eviction_order;
    Alcotest.test_case "find promotes" `Quick test_find_promotes;
    Alcotest.test_case "mem does not promote" `Quick test_mem_does_not_promote;
    Alcotest.test_case "replace updates" `Quick test_replace_updates_value;
    Alcotest.test_case "remove and clear" `Quick test_remove_and_clear;
    Alcotest.test_case "iter order" `Quick test_iter_order;
    Alcotest.test_case "capacity validation" `Quick test_capacity_validation;
    QCheck_alcotest.to_alcotest prop_against_model;
  ]
