(* A frame's epoch is only a tag — the segment invariant makes it
   irrelevant to the bytes — so it lives in the node, where [retain]
   and [epochs] read it. *)
type node = {
  key : int * int; (* owner, segment id *)
  image : bytes;
  epoch : int;
  cost : int; (* bytes charged against the budget *)
  mutable prev : node option;
  mutable next : node option;
}

type t = {
  bc_name : string;
  capacity : int;
  table : (int * int, node) Hashtbl.t;
  mutable head : node option; (* most recently used *)
  mutable tail : node option; (* eviction end *)
  mutable refs : int;
  mutable hits : int;
  mutable evictions : int;
  mutable invalidations : int;
  mutable bytes : int;
}

(* Node, key and bytes headers. *)
let overhead = 48

let create ?(capacity_bytes = 1 lsl 20) ~name () =
  if capacity_bytes < 0 then invalid_arg "Block_cache.create: negative capacity";
  {
    bc_name = name;
    capacity = capacity_bytes;
    table = Hashtbl.create 256;
    head = None;
    tail = None;
    refs = 0;
    hits = 0;
    evictions = 0;
    invalidations = 0;
    bytes = 0;
  }

let name t = t.bc_name
let capacity t = t.capacity

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
  t.bytes <- t.bytes - node.cost

let find_frame t ~owner ~seg =
  t.refs <- t.refs + 1;
  match Hashtbl.find_opt t.table (owner, seg) with
  | None -> None
  | Some node ->
    t.hits <- t.hits + 1;
    unlink t node;
    push_front t node;
    Some node.image

let frame_resident t ~owner ~seg = Hashtbl.mem t.table (owner, seg)

let insert_frame t ~owner ~seg ~epoch image =
  if t.capacity > 0 then begin
    let key = (owner, seg) in
    (match Hashtbl.find_opt t.table key with Some old -> remove_node t old | None -> ());
    let node =
      { key; image; epoch; cost = Bytes.length image + overhead; prev = None; next = None }
    in
    Hashtbl.add t.table key node;
    push_front t node;
    t.bytes <- t.bytes + node.cost;
    while t.bytes > t.capacity && t.tail <> None do
      match t.tail with
      | None -> ()
      | Some victim ->
        remove_node t victim;
        t.evictions <- t.evictions + 1
    done
  end

let retain t ~keep =
  let doomed =
    Hashtbl.fold (fun _ node acc -> if keep node.epoch then acc else node :: acc) t.table []
  in
  List.iter (remove_node t) doomed;
  let n = List.length doomed in
  t.invalidations <- t.invalidations + n;
  n

let clear t = ignore (retain t ~keep:(fun _ -> false))

let epochs t =
  let seen = Hashtbl.create 8 in
  Hashtbl.iter (fun _ node -> Hashtbl.replace seen node.epoch ()) t.table;
  Hashtbl.fold (fun e () acc -> e :: acc) seen [] |> List.sort compare

let stats t =
  {
    Cache_stats.refs = t.refs;
    hits = t.hits;
    evictions = t.evictions;
    invalidations = t.invalidations;
    resident_bytes = t.bytes;
    resident_entries = Hashtbl.length t.table;
  }

let reset_stats t =
  t.refs <- 0;
  t.hits <- 0;
  t.evictions <- 0;
  t.invalidations <- 0
