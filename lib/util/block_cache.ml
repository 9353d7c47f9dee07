(* A block's epoch is part of its key.  A frame's is only a tag — the
   segment invariant makes it irrelevant to the bytes — so it lives in
   the node, where [retain] and [epochs] read it for both kinds. *)
type key =
  | Blk of { src : int; blk : int; epoch : int }
  | Frm of { owner : int; seg : int }

type entry = Block of int array * int array | Frame of bytes

type node = {
  key : key;
  entry : entry;
  epoch : int;
  cost : int; (* bytes charged against the budget *)
  mutable prev : node option;
  mutable next : node option;
}

(* Per-kind counters and residency. *)
type tally = {
  mutable refs : int;
  mutable hits : int;
  mutable evictions : int;
  mutable invalidations : int;
  mutable bytes : int;
  mutable entries : int;
}

type t = {
  bc_name : string;
  capacity : int;
  table : (key, node) Hashtbl.t;
  mutable head : node option; (* most recently used *)
  mutable tail : node option; (* eviction end *)
  blocks : tally;
  frames : tally;
}

(* Node, key and array headers. *)
let overhead = 48

(* Two unboxed int arrays: 8 bytes per element. *)
let cost_of = function
  | Block (docs, tfs) -> (8 * (Array.length docs + Array.length tfs)) + overhead
  | Frame b -> Bytes.length b + overhead

let new_tally () =
  { refs = 0; hits = 0; evictions = 0; invalidations = 0; bytes = 0; entries = 0 }

let create ?(capacity_bytes = 1 lsl 20) ~name () =
  if capacity_bytes < 0 then invalid_arg "Block_cache.create: negative capacity";
  {
    bc_name = name;
    capacity = capacity_bytes;
    table = Hashtbl.create 256;
    head = None;
    tail = None;
    blocks = new_tally ();
    frames = new_tally ();
  }

let name t = t.bc_name
let capacity t = t.capacity
let tally_of t node = match node.entry with Block _ -> t.blocks | Frame _ -> t.frames

let unlink t node =
  (match node.prev with Some p -> p.next <- node.next | None -> t.head <- node.next);
  (match node.next with Some n -> n.prev <- node.prev | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.head;
  node.prev <- None;
  (match t.head with Some h -> h.prev <- Some node | None -> t.tail <- Some node);
  t.head <- Some node

let remove_node t node =
  unlink t node;
  Hashtbl.remove t.table node.key;
  let c = tally_of t node in
  c.bytes <- c.bytes - node.cost;
  c.entries <- c.entries - 1

let probe t c key =
  c.refs <- c.refs + 1;
  match Hashtbl.find_opt t.table key with
  | None -> None
  | Some node ->
    c.hits <- c.hits + 1;
    unlink t node;
    push_front t node;
    Some node.entry

let add t key ~epoch entry =
  if t.capacity > 0 then begin
    (match Hashtbl.find_opt t.table key with Some old -> remove_node t old | None -> ());
    let node = { key; entry; epoch; cost = cost_of entry; prev = None; next = None } in
    Hashtbl.add t.table key node;
    push_front t node;
    let c = tally_of t node in
    c.bytes <- c.bytes + node.cost;
    c.entries <- c.entries + 1;
    while t.blocks.bytes + t.frames.bytes > t.capacity && t.tail <> None do
      match t.tail with
      | None -> ()
      | Some victim ->
        remove_node t victim;
        let v = tally_of t victim in
        v.evictions <- v.evictions + 1
    done
  end

let check_blk fn blk = if blk < 0 then invalid_arg ("Block_cache." ^ fn ^ ": negative block")

let find t ~src ~blk ~epoch =
  check_blk "find" blk;
  match probe t t.blocks (Blk { src; blk; epoch }) with
  | Some (Block (docs, tfs)) -> Some (docs, tfs)
  | Some (Frame _) | None -> None

let insert t ~src ~blk ~epoch ~docs ~tfs =
  check_blk "insert" blk;
  add t (Blk { src; blk; epoch }) ~epoch (Block (docs, tfs))

let find_frame t ~owner ~seg =
  match probe t t.frames (Frm { owner; seg }) with
  | Some (Frame b) -> Some b
  | Some (Block _) | None -> None

let frame_resident t ~owner ~seg = Hashtbl.mem t.table (Frm { owner; seg })
let insert_frame t ~owner ~seg ~epoch b = add t (Frm { owner; seg }) ~epoch (Frame b)

let retain t ~keep =
  let doomed =
    Hashtbl.fold (fun _ node acc -> if keep node.epoch then acc else node :: acc) t.table []
  in
  List.iter
    (fun node ->
      remove_node t node;
      let c = tally_of t node in
      c.invalidations <- c.invalidations + 1)
    doomed;
  List.length doomed

let clear t = ignore (retain t ~keep:(fun _ -> false))

let epochs t =
  let seen = Hashtbl.create 8 in
  Hashtbl.iter (fun _ node -> Hashtbl.replace seen node.epoch ()) t.table;
  Hashtbl.fold (fun e () acc -> e :: acc) seen [] |> List.sort compare

let stats_of c =
  {
    Cache_stats.refs = c.refs;
    hits = c.hits;
    evictions = c.evictions;
    invalidations = c.invalidations;
    resident_bytes = c.bytes;
    resident_entries = c.entries;
  }

let stats t = stats_of t.blocks
let frame_stats t = stats_of t.frames

let reset_stats t =
  List.iter
    (fun c ->
      c.refs <- 0;
      c.hits <- 0;
      c.evictions <- 0;
      c.invalidations <- 0)
    [ t.blocks; t.frames ]
