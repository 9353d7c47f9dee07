(* The Mneme buffer manager: hit accounting, replacement policies,
   pinning (the reservation optimisation), and the transient mode. *)

let seg_bytes n = Bytes.make 100 (Char.chr (65 + (n mod 26)))

let load n () = seg_bytes n

let fault_seq buffer segs = List.iter (fun s -> ignore (Mneme.Buffer_pool.fault buffer ~pseg:s ~load:(load s))) segs

let test_hit_miss_accounting () =
  let b = Mneme.Buffer_pool.create ~name:"t" ~capacity:1000 () in
  fault_seq b [ 1; 2; 1; 1; 3 ];
  let s = Mneme.Buffer_pool.stats b in
  Alcotest.(check int) "refs" 5 s.Util.Cache_stats.refs;
  Alcotest.(check int) "hits" 2 s.Util.Cache_stats.hits;
  Alcotest.(check int) "resident" 3 s.Util.Cache_stats.resident_entries;
  Alcotest.(check int) "bytes" 300 s.Util.Cache_stats.resident_bytes

let test_fault_returns_loaded_bytes () =
  let b = Mneme.Buffer_pool.create ~name:"t" ~capacity:1000 () in
  let got = Mneme.Buffer_pool.fault b ~pseg:7 ~load:(load 7) in
  Alcotest.(check bytes) "bytes" (seg_bytes 7) got;
  (* Hit path returns the cached copy, not a re-load. *)
  let got2 = Mneme.Buffer_pool.fault b ~pseg:7 ~load:(fun () -> Alcotest.fail "must not reload") in
  Alcotest.(check bytes) "cached" (seg_bytes 7) got2

let test_lru_eviction () =
  (* Capacity for exactly 2 of our 100-byte segments. *)
  let b = Mneme.Buffer_pool.create ~name:"t" ~capacity:200 () in
  fault_seq b [ 1; 2 ];
  ignore (Mneme.Buffer_pool.fault b ~pseg:1 ~load:(load 1));
  (* touch 1 *)
  fault_seq b [ 3 ];
  (* 2 was LRU *)
  Alcotest.(check bool) "1 resident" true (Mneme.Buffer_pool.resident b ~pseg:1);
  Alcotest.(check bool) "2 evicted" false (Mneme.Buffer_pool.resident b ~pseg:2);
  Alcotest.(check bool) "3 resident" true (Mneme.Buffer_pool.resident b ~pseg:3);
  Alcotest.(check int) "evictions" 1 (Mneme.Buffer_pool.stats b).Util.Cache_stats.evictions

let test_fifo_ignores_recency () =
  let b = Mneme.Buffer_pool.create ~name:"t" ~capacity:200 ~policy:Mneme.Buffer_pool.Fifo () in
  fault_seq b [ 1; 2 ];
  ignore (Mneme.Buffer_pool.fault b ~pseg:1 ~load:(load 1));
  fault_seq b [ 3 ];
  (* Under FIFO, 1 is the oldest despite the touch. *)
  Alcotest.(check bool) "1 evicted" false (Mneme.Buffer_pool.resident b ~pseg:1);
  Alcotest.(check bool) "2 resident" true (Mneme.Buffer_pool.resident b ~pseg:2)

let test_clock_second_chance () =
  let b = Mneme.Buffer_pool.create ~name:"t" ~capacity:300 ~policy:Mneme.Buffer_pool.Clock () in
  fault_seq b [ 1; 2; 3 ];
  (* First overflow sweeps all reference bits clear and evicts one. *)
  fault_seq b [ 4 ];
  Alcotest.(check int) "three resident" 3
    (Mneme.Buffer_pool.stats b).Util.Cache_stats.resident_entries;
  (* Re-reference 2: its bit is set again, so the next sweep passes it
     over and takes a clear-bit segment instead. *)
  Alcotest.(check bool) "2 still resident" true (Mneme.Buffer_pool.resident b ~pseg:2);
  ignore (Mneme.Buffer_pool.fault b ~pseg:2 ~load:(load 2));
  fault_seq b [ 5 ];
  Alcotest.(check bool) "second chance" true (Mneme.Buffer_pool.resident b ~pseg:2)

let test_pin_prevents_eviction () =
  let b = Mneme.Buffer_pool.create ~name:"t" ~capacity:200 () in
  fault_seq b [ 1; 2 ];
  Alcotest.(check bool) "pinned" true (Mneme.Buffer_pool.pin b ~pseg:1);
  fault_seq b [ 3 ];
  (* 1 would have been the LRU victim but is reserved; 2 goes instead. *)
  Alcotest.(check bool) "1 survives" true (Mneme.Buffer_pool.resident b ~pseg:1);
  Alcotest.(check bool) "2 evicted" false (Mneme.Buffer_pool.resident b ~pseg:2);
  Mneme.Buffer_pool.unpin b ~pseg:1;
  fault_seq b [ 4 ];
  Alcotest.(check bool) "after unpin evictable" false (Mneme.Buffer_pool.resident b ~pseg:1)

let test_pin_missing () =
  let b = Mneme.Buffer_pool.create ~name:"t" ~capacity:200 () in
  Alcotest.(check bool) "pin absent returns false" false (Mneme.Buffer_pool.pin b ~pseg:9);
  Alcotest.(check bool) "unpin absent raises" true
    (match Mneme.Buffer_pool.unpin b ~pseg:9 with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_pins_nest () =
  let b = Mneme.Buffer_pool.create ~name:"t" ~capacity:100 () in
  fault_seq b [ 1 ];
  ignore (Mneme.Buffer_pool.pin b ~pseg:1);
  ignore (Mneme.Buffer_pool.pin b ~pseg:1);
  Mneme.Buffer_pool.unpin b ~pseg:1;
  (* Still pinned once: a new segment overflows rather than evicting. *)
  fault_seq b [ 2 ];
  Alcotest.(check bool) "still pinned" true (Mneme.Buffer_pool.resident b ~pseg:1)

let test_all_pinned_incoming_victim () =
  let b = Mneme.Buffer_pool.create ~name:"t" ~capacity:100 () in
  fault_seq b [ 1 ];
  ignore (Mneme.Buffer_pool.pin b ~pseg:1);
  fault_seq b [ 2 ];
  (* The only unpinned segment is the incoming one: it is sacrificed
     rather than displacing reserved data. *)
  Alcotest.(check int) "pinned survives alone" 1
    (Mneme.Buffer_pool.stats b).Util.Cache_stats.resident_entries;
  Alcotest.(check bool) "pinned resident" true (Mneme.Buffer_pool.resident b ~pseg:1);
  Alcotest.(check bool) "incoming dropped" false (Mneme.Buffer_pool.resident b ~pseg:2)

let test_transient_mode () =
  let b = Mneme.Buffer_pool.create ~name:"t" ~capacity:0 () in
  fault_seq b [ 1; 1; 1 ];
  let s = Mneme.Buffer_pool.stats b in
  Alcotest.(check int) "all misses" 0 s.Util.Cache_stats.hits;
  Alcotest.(check int) "refs counted" 3 s.Util.Cache_stats.refs;
  Alcotest.(check int) "nothing retained" 0 s.Util.Cache_stats.resident_entries

let test_update_and_drop () =
  let b = Mneme.Buffer_pool.create ~name:"t" ~capacity:1000 () in
  fault_seq b [ 1 ];
  Mneme.Buffer_pool.update b ~pseg:1 (Bytes.make 50 'u');
  let got = Mneme.Buffer_pool.fault b ~pseg:1 ~load:(fun () -> Alcotest.fail "resident") in
  Alcotest.(check int) "updated size" 50 (Bytes.length got);
  Mneme.Buffer_pool.update b ~pseg:99 (Bytes.make 1 'x');
  (* no-op *)
  Alcotest.(check bool) "update absent is no-op" false (Mneme.Buffer_pool.resident b ~pseg:99);
  Mneme.Buffer_pool.drop b ~pseg:1;
  Alcotest.(check bool) "dropped" false (Mneme.Buffer_pool.resident b ~pseg:1)

let test_clear_keeps_stats () =
  let b = Mneme.Buffer_pool.create ~name:"t" ~capacity:1000 () in
  fault_seq b [ 1; 1 ];
  Mneme.Buffer_pool.clear b;
  let s = Mneme.Buffer_pool.stats b in
  Alcotest.(check int) "refs kept" 2 s.Util.Cache_stats.refs;
  Alcotest.(check int) "empty" 0 s.Util.Cache_stats.resident_entries;
  Mneme.Buffer_pool.reset_stats b;
  Alcotest.(check int) "reset" 0 (Mneme.Buffer_pool.stats b).Util.Cache_stats.refs

let test_accessors_and_validation () =
  let b = Mneme.Buffer_pool.create ~name:"big" ~capacity:42 ~policy:Mneme.Buffer_pool.Fifo () in
  Alcotest.(check string) "name" "big" (Mneme.Buffer_pool.name b);
  Alcotest.(check int) "capacity" 42 (Mneme.Buffer_pool.capacity b);
  Alcotest.(check bool) "policy" true (Mneme.Buffer_pool.policy b = Mneme.Buffer_pool.Fifo);
  Alcotest.(check bool) "negative capacity" true
    (match Mneme.Buffer_pool.create ~name:"x" ~capacity:(-1) () with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_merge_stats () =
  let a = Mneme.Buffer_pool.create ~name:"a" ~capacity:1000 () in
  let b = Mneme.Buffer_pool.create ~name:"b" ~capacity:200 () in
  fault_seq a [ 1; 2; 1; 1 ];
  fault_seq b [ 1; 2; 3; 3 ];
  let m =
    Util.Cache_stats.merge [ Mneme.Buffer_pool.stats a; Mneme.Buffer_pool.stats b ]
  in
  Alcotest.(check int) "refs sum" 8 m.Util.Cache_stats.refs;
  Alcotest.(check int) "hits sum" 3 m.Util.Cache_stats.hits;
  Alcotest.(check int) "evictions sum" 1 m.Util.Cache_stats.evictions;
  Alcotest.(check int) "resident segments sum" 4 m.Util.Cache_stats.resident_entries;
  Alcotest.(check int) "resident bytes sum" 400 m.Util.Cache_stats.resident_bytes;
  let z = Util.Cache_stats.merge [] in
  Alcotest.(check int) "empty merge refs" 0 z.Util.Cache_stats.refs;
  Alcotest.(check int) "empty merge bytes" 0 z.Util.Cache_stats.resident_bytes;
  (* Merging a single session is the identity. *)
  Alcotest.(check bool) "singleton identity" true
    (Util.Cache_stats.merge [ Mneme.Buffer_pool.stats a ] = Mneme.Buffer_pool.stats a)

(* The pinned-segment index must track every path that creates or
   destroys a pin: pin/unpin, nesting, update (which rebuilds the node),
   drop and clear. *)
let test_pinned_segments_index () =
  let b = Mneme.Buffer_pool.create ~name:"t" ~capacity:1000 () in
  fault_seq b [ 1; 2; 3 ];
  Alcotest.(check (list int)) "none pinned" [] (Mneme.Buffer_pool.pinned_segments b);
  ignore (Mneme.Buffer_pool.pin b ~pseg:3);
  ignore (Mneme.Buffer_pool.pin b ~pseg:1);
  ignore (Mneme.Buffer_pool.pin b ~pseg:1);
  Alcotest.(check (list int)) "ascending" [ 1; 3 ] (Mneme.Buffer_pool.pinned_segments b);
  Mneme.Buffer_pool.unpin b ~pseg:1;
  Alcotest.(check (list int)) "nested pin survives one unpin" [ 1; 3 ]
    (Mneme.Buffer_pool.pinned_segments b);
  Mneme.Buffer_pool.unpin b ~pseg:1;
  Alcotest.(check (list int)) "unpinned out" [ 3 ] (Mneme.Buffer_pool.pinned_segments b);
  (* update preserves the pin count across the node rebuild. *)
  Mneme.Buffer_pool.update b ~pseg:3 (Bytes.make 10 'u');
  Alcotest.(check (list int)) "pin survives update" [ 3 ] (Mneme.Buffer_pool.pinned_segments b);
  Mneme.Buffer_pool.drop b ~pseg:3;
  Alcotest.(check (list int)) "drop clears pin" [] (Mneme.Buffer_pool.pinned_segments b);
  fault_seq b [ 4 ];
  ignore (Mneme.Buffer_pool.pin b ~pseg:4);
  Mneme.Buffer_pool.clear b;
  Alcotest.(check (list int)) "clear empties index" [] (Mneme.Buffer_pool.pinned_segments b);
  (* A segment whose pin count returned to zero is evictable again, and
     its eviction must not resurrect an index entry. *)
  fault_seq b [ 5 ];
  ignore (Mneme.Buffer_pool.pin b ~pseg:5);
  Mneme.Buffer_pool.unpin b ~pseg:5;
  fault_seq b (List.init 12 (fun i -> 100 + i));
  Alcotest.(check (list int)) "evicted segment not pinned" []
    (Mneme.Buffer_pool.pinned_segments b)

let test_set_capacity () =
  let b = Mneme.Buffer_pool.create ~name:"t" ~capacity:400 () in
  fault_seq b [ 1; 2; 3; 4 ];
  ignore (Mneme.Buffer_pool.pin b ~pseg:1);
  Mneme.Buffer_pool.set_capacity b 200;
  Alcotest.(check int) "capacity" 200 (Mneme.Buffer_pool.capacity b);
  (* 1 is the coldest but pinned; 2 and 3 go, 4 (the warmest) fits. *)
  Alcotest.(check (list int)) "cold end evicted, pin kept" [ 4; 1 ]
    (Mneme.Buffer_pool.resident_segments b);
  Mneme.Buffer_pool.set_capacity b 0;
  Alcotest.(check (list int)) "only the pin outlives 0" [ 1 ]
    (Mneme.Buffer_pool.resident_segments b);
  let s = Mneme.Buffer_pool.stats b in
  Alcotest.(check int) "evictions counted" 3 s.Util.Cache_stats.evictions;
  Alcotest.(check int) "no reference counted" 4 s.Util.Cache_stats.refs;
  Mneme.Buffer_pool.unpin b ~pseg:1;
  Mneme.Buffer_pool.set_capacity b 1000;
  Alcotest.(check (list int)) "growing evicts nothing" [ 1 ]
    (Mneme.Buffer_pool.resident_segments b);
  Alcotest.check_raises "negative" (Invalid_argument "Buffer_pool.set_capacity: negative capacity")
    (fun () -> Mneme.Buffer_pool.set_capacity b (-1))

(* Random steps under LRU against a list model: faults of segments of
   any size up to past the budget, pins and unpins, update, drop, clear
   and capacity changes.  After every step the replacement order, the
   pins and all six counters must match the model, no pinned segment
   may have gone, and a step that evicts must leave the budget holding
   unless every resident segment is pinned. *)
type op =
  | Fault of int * int (* segment, size if loaded *)
  | Pin of int
  | Unpin of int
  | Update of int * int
  | Drop of int
  | Clear
  | Set_capacity of int

let show_op = function
  | Fault (s, n) -> Printf.sprintf "fault %d (%d bytes)" s n
  | Pin s -> Printf.sprintf "pin %d" s
  | Unpin s -> Printf.sprintf "unpin %d" s
  | Update (s, n) -> Printf.sprintf "update %d to %d bytes" s n
  | Drop s -> Printf.sprintf "drop %d" s
  | Clear -> "clear"
  | Set_capacity c -> Printf.sprintf "capacity %d" c

let gen_steps =
  QCheck.Gen.(
    int_range 0 300 >>= fun capacity ->
    let seg = int_range 0 7 and size = int_range 0 (capacity + 100) in
    let op =
      frequency
        [
          (6, map2 (fun s n -> Fault (s, n)) seg size);
          (2, map (fun s -> Pin s) seg);
          (2, map (fun s -> Unpin s) seg);
          (1, map2 (fun s n -> Update (s, n)) seg size);
          (1, map (fun s -> Drop s) seg);
          (1, return Clear);
          (1, map (fun c -> Set_capacity c) (int_range 0 (capacity + 100)));
        ]
    in
    pair (return capacity) (list_size (int_range 1 50) op))

type model = {
  mutable capacity : int;
  mutable order : (int * (int * int)) list; (* segment -> (size, pins), front first *)
  mutable refs : int;
  mutable hits : int;
  mutable evictions : int;
  mutable invalidations : int;
}

let used m = List.fold_left (fun acc (_, (n, _)) -> acc + n) 0 m.order
let all_pinned m = List.for_all (fun (_, (_, pins)) -> pins > 0) m.order

let rec evict m =
  if used m > m.capacity then
    match List.rev m.order |> List.find_opt (fun (_, (_, pins)) -> pins = 0) with
    | None -> ()
    | Some (victim, _) ->
      m.order <- List.remove_assoc victim m.order;
      m.evictions <- m.evictions + 1;
      evict m

let add_pins m s d =
  m.order <- List.map (fun (k, (n, p)) -> (k, (n, if k = s then p + d else p))) m.order

(* Apply one step to the pool and the model; [Some evicted] when the pool
   answered as the model did, where [evicted] says the step ran the
   eviction loop. *)
let step b m op =
  let bytes n = Bytes.make n 'x' in
  match op with
  | Fault (s, n) -> (
    let got = Mneme.Buffer_pool.fault b ~pseg:s ~load:(fun () -> bytes n) in
    m.refs <- m.refs + 1;
    match List.assoc_opt s m.order with
    | Some (size, pins) ->
      m.hits <- m.hits + 1;
      m.order <- (s, (size, pins)) :: List.remove_assoc s m.order;
      if Bytes.length got = size then Some false else None
    | None ->
      if m.capacity > 0 then begin
        m.order <- (s, (n, 0)) :: m.order;
        evict m
      end;
      if Bytes.length got = n then Some (m.capacity > 0) else None)
  | Pin s ->
    let resident = List.mem_assoc s m.order in
    if resident then add_pins m s 1;
    if Mneme.Buffer_pool.pin b ~pseg:s = resident then Some false else None
  | Unpin s ->
    let pinned = match List.assoc_opt s m.order with Some (_, p) -> p > 0 | None -> false in
    if pinned then add_pins m s (-1);
    let raised =
      match Mneme.Buffer_pool.unpin b ~pseg:s with
      | () -> false
      | exception Invalid_argument _ -> true
    in
    if raised <> pinned then Some false else None
  | Update (s, n) -> (
    Mneme.Buffer_pool.update b ~pseg:s (bytes n);
    match List.assoc_opt s m.order with
    | Some (_, pins) ->
      m.order <- (s, (n, pins)) :: List.remove_assoc s m.order;
      evict m;
      Some true
    | None -> Some false)
  | Drop s ->
    Mneme.Buffer_pool.drop b ~pseg:s;
    if List.mem_assoc s m.order then m.invalidations <- m.invalidations + 1;
    m.order <- List.remove_assoc s m.order;
    Some false
  | Clear ->
    Mneme.Buffer_pool.clear b;
    m.invalidations <- m.invalidations + List.length m.order;
    m.order <- [];
    Some false
  | Set_capacity c ->
    Mneme.Buffer_pool.set_capacity b c;
    m.capacity <- c;
    evict m;
    Some true

let agrees b m ~evicted ~pinned_before =
  Mneme.Buffer_pool.resident_segments b = List.map fst m.order
  && Mneme.Buffer_pool.capacity b = m.capacity
  && Mneme.Buffer_pool.pinned_segments b
     = List.sort compare (List.filter_map (fun (s, (_, p)) -> if p > 0 then Some s else None) m.order)
  && List.for_all (fun s -> Mneme.Buffer_pool.resident b ~pseg:s) pinned_before
  && ((not evicted) || used m <= m.capacity || all_pinned m)
  && Mneme.Buffer_pool.stats b
     = {
         Util.Cache_stats.refs = m.refs;
         hits = m.hits;
         evictions = m.evictions;
         invalidations = m.invalidations;
         resident_bytes = used m;
         resident_entries = List.length m.order;
       }

let prop_against_model =
  QCheck.Test.make ~name:"buffer pool matches a model under LRU with pins" ~count:300
    (QCheck.make
       ~print:(fun (c, ops) ->
         Printf.sprintf "capacity %d: %s" c (String.concat "; " (List.map show_op ops)))
       gen_steps)
    (fun (capacity, ops) ->
      let b = Mneme.Buffer_pool.create ~name:"q" ~capacity () in
      let m = { capacity; order = []; refs = 0; hits = 0; evictions = 0; invalidations = 0 } in
      List.for_all
        (fun op ->
          (* Only drop and clear may take a pinned segment away. *)
          let pinned_before =
            match op with
            | Drop _ | Clear -> []
            | _ -> Mneme.Buffer_pool.pinned_segments b
          in
          match step b m op with
          | Some evicted -> agrees b m ~evicted ~pinned_before
          | None -> false)
        ops)

let suite =
  [
    Alcotest.test_case "hit/miss accounting" `Quick test_hit_miss_accounting;
    Alcotest.test_case "fault returns bytes" `Quick test_fault_returns_loaded_bytes;
    Alcotest.test_case "lru eviction" `Quick test_lru_eviction;
    Alcotest.test_case "fifo ignores recency" `Quick test_fifo_ignores_recency;
    Alcotest.test_case "clock second chance" `Quick test_clock_second_chance;
    Alcotest.test_case "pin prevents eviction" `Quick test_pin_prevents_eviction;
    Alcotest.test_case "pin missing" `Quick test_pin_missing;
    Alcotest.test_case "pins nest" `Quick test_pins_nest;
    Alcotest.test_case "all pinned: incoming victim" `Quick test_all_pinned_incoming_victim;
    Alcotest.test_case "transient mode" `Quick test_transient_mode;
    Alcotest.test_case "update and drop" `Quick test_update_and_drop;
    Alcotest.test_case "clear keeps stats" `Quick test_clear_keeps_stats;
    Alcotest.test_case "accessors and validation" `Quick test_accessors_and_validation;
    Alcotest.test_case "merge stats" `Quick test_merge_stats;
    Alcotest.test_case "pinned segments index" `Quick test_pinned_segments_index;
    Alcotest.test_case "set capacity" `Quick test_set_capacity;
    QCheck_alcotest.to_alcotest prop_against_model;
  ]
