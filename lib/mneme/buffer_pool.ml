type policy = Lru | Fifo | Clock

type seg = {
  pseg : int;
  bytes : bytes;
  mutable pins : int;
  mutable ref_bit : bool;
  mutable prev : seg option;
  mutable next : seg option;
}

type t = {
  buf_name : string;
  mutable capacity : int;
  buf_policy : policy;
  table : (int, seg) Hashtbl.t;
  pinned : (int, unit) Hashtbl.t; (* segments with pins > 0 *)
  mutable head : seg option; (* most recent / queue front *)
  mutable tail : seg option; (* eviction end *)
  mutable used : int;
  mutable n_refs : int;
  mutable n_hits : int;
  mutable n_evictions : int;
  mutable n_invalidations : int;
}

let create ~name ~capacity ?(policy = Lru) () =
  if capacity < 0 then invalid_arg "Buffer_pool.create: negative capacity";
  {
    buf_name = name;
    capacity;
    buf_policy = policy;
    table = Hashtbl.create 64;
    pinned = Hashtbl.create 8;
    head = None;
    tail = None;
    used = 0;
    n_refs = 0;
    n_hits = 0;
    n_evictions = 0;
    n_invalidations = 0;
  }

let name t = t.buf_name
let capacity t = t.capacity
let policy t = t.buf_policy

let unlink t seg =
  (match seg.prev with Some p -> p.next <- seg.next | None -> t.head <- seg.next);
  (match seg.next with Some n -> n.prev <- seg.prev | None -> t.tail <- seg.prev);
  seg.prev <- None;
  seg.next <- None

let push_front t seg =
  seg.next <- t.head;
  seg.prev <- None;
  (match t.head with Some h -> h.prev <- Some seg | None -> t.tail <- Some seg);
  t.head <- Some seg

let remove_seg t seg =
  unlink t seg;
  Hashtbl.remove t.table seg.pseg;
  if seg.pins > 0 then Hashtbl.remove t.pinned seg.pseg;
  t.used <- t.used - Bytes.length seg.bytes

(* Find an eviction victim according to the policy, skipping pins.  For
   Clock, segments with the reference bit set get a second chance (the
   bit is cleared and the segment recycled to the front). *)
let rec pick_victim t scanned =
  match t.tail with
  | None -> None
  | Some _ ->
    let rec from_tail = function
      | None -> None
      | Some seg when seg.pins > 0 -> from_tail seg.prev
      | Some seg -> (
        match t.buf_policy with
        | Lru | Fifo -> Some seg
        | Clock ->
          if seg.ref_bit then begin
            seg.ref_bit <- false;
            unlink t seg;
            push_front t seg;
            None (* retry the sweep from the new tail *)
          end
          else Some seg)
    in
    (match from_tail t.tail with
    | Some seg -> Some seg
    | None ->
      (* Clock gave a second chance; bounded retries prevent spinning
         when every segment is pinned or freshly referenced. *)
      if scanned > 2 * Hashtbl.length t.table then None else pick_victim t (scanned + 1))

let evict_to_fit t =
  let continue_ = ref true in
  while t.used > t.capacity && !continue_ do
    match pick_victim t 0 with
    | None -> continue_ := false
    | Some victim ->
      remove_seg t victim;
      t.n_evictions <- t.n_evictions + 1
  done

let set_capacity t capacity =
  if capacity < 0 then invalid_arg "Buffer_pool.set_capacity: negative capacity";
  t.capacity <- capacity;
  evict_to_fit t

let fault t ~pseg ~load =
  t.n_refs <- t.n_refs + 1;
  match Hashtbl.find_opt t.table pseg with
  | Some seg ->
    t.n_hits <- t.n_hits + 1;
    (match t.buf_policy with
    | Lru ->
      unlink t seg;
      push_front t seg
    | Fifo -> ()
    | Clock -> seg.ref_bit <- true);
    seg.bytes
  | None ->
    let bytes = load () in
    if t.capacity > 0 then begin
      let seg = { pseg; bytes; pins = 0; ref_bit = true; prev = None; next = None } in
      Hashtbl.add t.table pseg seg;
      push_front t seg;
      t.used <- t.used + Bytes.length bytes;
      evict_to_fit t
    end;
    bytes

let resident t ~pseg = Hashtbl.mem t.table pseg

let pin t ~pseg =
  match Hashtbl.find_opt t.table pseg with
  | None -> false
  | Some seg ->
    if seg.pins = 0 then Hashtbl.replace t.pinned pseg ();
    seg.pins <- seg.pins + 1;
    true

let unpin t ~pseg =
  match Hashtbl.find_opt t.table pseg with
  | None -> invalid_arg "Buffer_pool.unpin: segment not resident"
  | Some seg ->
    if seg.pins <= 0 then invalid_arg "Buffer_pool.unpin: segment not pinned";
    seg.pins <- seg.pins - 1;
    if seg.pins = 0 then Hashtbl.remove t.pinned pseg

let update t ~pseg bytes =
  match Hashtbl.find_opt t.table pseg with
  | None -> ()
  | Some seg ->
    (* Byte size may change on relocation-free updates; rebuild the node. *)
    let pins = seg.pins in
    remove_seg t seg;
    let seg' = { pseg; bytes; pins; ref_bit = true; prev = None; next = None } in
    if pins > 0 then Hashtbl.replace t.pinned pseg ();
    Hashtbl.add t.table pseg seg';
    push_front t seg';
    t.used <- t.used + Bytes.length bytes;
    evict_to_fit t

let drop t ~pseg =
  match Hashtbl.find_opt t.table pseg with
  | None -> ()
  | Some seg ->
    remove_seg t seg;
    t.n_invalidations <- t.n_invalidations + 1

let clear t =
  t.n_invalidations <- t.n_invalidations + Hashtbl.length t.table;
  Hashtbl.reset t.table;
  Hashtbl.reset t.pinned;
  t.head <- None;
  t.tail <- None;
  t.used <- 0

(* O(pinned): the engine's between-query leak detector calls this per
   query, where the answer is almost always the empty list — scanning
   every resident segment for it would tax exactly the well-behaved
   case. *)
let pinned_segments t =
  Hashtbl.fold (fun pseg () acc -> pseg :: acc) t.pinned [] |> List.sort compare

let resident_segments t =
  let rec go acc = function None -> List.rev acc | Some seg -> go (seg.pseg :: acc) seg.next in
  go [] t.head

let stats t =
  {
    Util.Cache_stats.refs = t.n_refs;
    hits = t.n_hits;
    evictions = t.n_evictions;
    invalidations = t.n_invalidations;
    resident_bytes = t.used;
    resident_entries = Hashtbl.length t.table;
  }

let reset_stats t =
  t.n_refs <- 0;
  t.n_hits <- 0;
  t.n_evictions <- 0;
  t.n_invalidations <- 0
