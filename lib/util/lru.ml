type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable cost : int;
  mutable prev : ('k, 'v) node option;
  mutable next : ('k, 'v) node option;
}

type ('k, 'v) t = {
  capacity : int;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node option; (* most recently used *)
  mutable tail : ('k, 'v) node option; (* eviction end *)
  mutable used : int;
  mutable refs : int;
  mutable hits : int;
  mutable evictions : int;
  mutable invalidations : int;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Lru.create: negative capacity";
  {
    capacity;
    table = Hashtbl.create (min (max capacity 1) 1024);
    head = None;
    tail = None;
    used = 0;
    refs = 0;
    hits = 0;
    evictions = 0;
    invalidations = 0;
  }

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
  t.used <- t.used - node.cost

let find ?(stale = fun _ -> false) t k =
  t.refs <- t.refs + 1;
  match Hashtbl.find_opt t.table k with
  | None -> None
  | Some node when stale node.value ->
    remove_node t node;
    t.invalidations <- t.invalidations + 1;
    None
  | Some node ->
    t.hits <- t.hits + 1;
    unlink t node;
    push_front t node;
    Some node.value

let mem t k = Hashtbl.mem t.table k

let add t k ~cost v =
  if cost < 0 then invalid_arg "Lru.add: negative cost";
  if t.capacity > 0 then begin
    (match Hashtbl.find_opt t.table k with
    | Some node ->
      (* A replaced entry counts as removed and re-added: no counter. *)
      t.used <- t.used - node.cost;
      node.value <- v;
      node.cost <- cost;
      unlink t node;
      push_front t node
    | None ->
      let node = { key = k; value = v; cost; prev = None; next = None } in
      Hashtbl.replace t.table k node;
      push_front t node);
    t.used <- t.used + cost;
    (* The newcomer itself goes last, when it alone exceeds the budget. *)
    let rec evict () =
      match t.tail with
      | Some victim when t.used > t.capacity ->
        remove_node t victim;
        t.evictions <- t.evictions + 1;
        evict ()
      | Some _ | None -> ()
    in
    evict ()
  end

let retain t ~keep =
  let rec go dropped = function
    | None -> dropped
    | Some node ->
      let next = node.next in
      if keep node.key node.value then go dropped next
      else begin
        remove_node t node;
        go (dropped + 1) next
      end
  in
  let dropped = go 0 t.head in
  t.invalidations <- t.invalidations + dropped;
  dropped

let clear t =
  t.invalidations <- t.invalidations + Hashtbl.length t.table;
  Hashtbl.reset t.table;
  t.head <- None;
  t.tail <- None;
  t.used <- 0

let fold t ~init ~f =
  let rec go acc = function None -> acc | Some node -> go (f acc node.key node.value) node.next in
  go init t.head

let stats t =
  {
    Cache_stats.refs = t.refs;
    hits = t.hits;
    evictions = t.evictions;
    invalidations = t.invalidations;
    resident_bytes = t.used;
    resident_entries = Hashtbl.length t.table;
  }

let reset_stats t =
  t.refs <- 0;
  t.hits <- 0;
  t.evictions <- 0;
  t.invalidations <- 0
