exception Corrupt of string

let magic = "MNEM"
let version = 2 (* v2: per-physical-segment CRC32s in the pool tables *)
let header_size = 64

(* Header layout:
   0  magic (4)
   4  version       u16
   6  finalized     u8
   7  aux_off       u64   directory extent (0 when never finalized)
   15 aux_len       u64
   23 data_tail     u64
   31 next_lseg     u32
   35 object_count  u64
   43 wasted        u64
   51 epoch         u32   latest published epoch (0 = never published)
   55 root          u32   sealed-root oid + 1 (0 = no root)

   The epoch/root words live in what was header padding, so a v2 store
   written before they existed reads back as epoch 0 with no root. *)

type open_pseg =
  | Open_fixed of { pseg_id : int; lseg : int; buf : bytes; mutable count : int }
  | Open_packed of {
      pseg_id : int;
      mutable objs : (Oid.t * bytes) list; (* reverse allocation order *)
      mutable count : int;
      mutable data_bytes : int;
    }

type pool = {
  store : t;
  pname : string;
  owner : int; (* names this pool of this session in a frame cache *)
  mutable policy : Policy.t option; (* None until the aux blob is loaded *)
  mutable loaded : bool;
  mutable blob : (int * int) option; (* persisted blob extent, for lazy load *)
  mutable pbuffer : Buffer_pool.t option;
  psegs : (int, int * int * int) Hashtbl.t; (* pseg id -> (offset, length, crc32) *)
  mutable next_pseg : int;
  lsegs : (int, int array) Hashtbl.t; (* lseg -> per-slot pseg id, -1 = absent *)
  mutable cur_lseg : int; (* -1 = no allocation lseg open *)
  mutable cur_slot : int;
  mutable open_pseg : open_pseg option;
  mutable obj_count : int;
}

and t = {
  vfs : Vfs.t;
  file : Vfs.file;
  mutable journal : Journal.t option;
  pools : (string, pool) Hashtbl.t;
  mutable pool_list : pool list; (* reverse registration order *)
  lseg_owner : (int, pool) Hashtbl.t;
  mutable next_lseg : int;
  mutable data_tail : int;
  mutable object_count : int;
  mutable wasted : int;
  mutable aux : (int * int) option;
  mutable finalized : bool;
  mutable epoch : int;
  mutable root : int; (* oid of the sealed root object, -1 = none *)
  mutable frames : Util.Block_cache.t option; (* verified segment images *)
}

(* All data-file I/O goes through the optional journal so that batched
   updates are atomic and readers see their own pending writes. *)
let st_write t ~off b =
  match t.journal with Some j -> Journal.write j ~off b | None -> Vfs.write t.file ~off b

let st_read t ~off ~len =
  match t.journal with Some j -> Journal.read j ~off ~len | None -> Vfs.read t.file ~off ~len

let write_header t =
  let b = Bytes.make header_size '\000' in
  Bytes.blit_string magic 0 b 0 4;
  Util.Bin.put_u16 b 4 version;
  Util.Bin.put_u8 b 6 (if t.finalized then 1 else 0);
  let aux_off, aux_len = match t.aux with Some (o, l) -> (o, l) | None -> (0, 0) in
  Util.Bin.put_u64 b 7 aux_off;
  Util.Bin.put_u64 b 15 aux_len;
  Util.Bin.put_u64 b 23 t.data_tail;
  Util.Bin.put_u32 b 31 t.next_lseg;
  Util.Bin.put_u64 b 35 t.object_count;
  Util.Bin.put_u64 b 43 t.wasted;
  Util.Bin.put_u32 b 51 t.epoch;
  Util.Bin.put_u32 b 55 (t.root + 1);
  st_write t ~off:0 b

let create vfs name =
  if Vfs.file_exists vfs name then invalid_arg ("Store.create: file exists: " ^ name);
  let file = Vfs.open_file vfs name in
  let t =
    {
      vfs;
      file;
      journal = None;
      pools = Hashtbl.create 4;
      pool_list = [];
      lseg_owner = Hashtbl.create 256;
      next_lseg = 0;
      data_tail = header_size;
      object_count = 0;
      wasted = 0;
      aux = None;
      finalized = false;
      epoch = 0;
      root = -1;
      frames = None;
    }
  in
  write_header t;
  t

(* Frame owners are unique across every session in the process, so two
   sessions over copies of one file never alias in a shared cache. *)
let next_owner = Atomic.make 0

let fresh_pool t name =
  {
    store = t;
    pname = name;
    owner = Atomic.fetch_and_add next_owner 1;
    policy = None;
    loaded = false;
    blob = None;
    pbuffer = None;
    psegs = Hashtbl.create 64;
    next_pseg = 0;
    lsegs = Hashtbl.create 64;
    cur_lseg = -1;
    cur_slot = 0;
    open_pseg = None;
    obj_count = 0;
  }

let open_existing vfs name =
  if not (Vfs.file_exists vfs name) then raise (Corrupt ("Store.open_existing: no such file: " ^ name));
  let file = Vfs.open_file vfs name in
  if Vfs.size file < header_size then raise (Corrupt "Store.open_existing: truncated header");
  let b = Vfs.read file ~off:0 ~len:header_size in
  if Bytes.sub_string b 0 4 <> magic then raise (Corrupt "Store.open_existing: bad magic");
  if Util.Bin.get_u16 b 4 <> version then raise (Corrupt "Store.open_existing: version mismatch");
  if Util.Bin.get_u8 b 6 <> 1 then raise (Corrupt "Store.open_existing: store was never finalized");
  let aux_off = Util.Bin.get_u64 b 7 in
  let aux_len = Util.Bin.get_u64 b 15 in
  let t =
    {
      vfs;
      file;
      journal = None;
      pools = Hashtbl.create 4;
      pool_list = [];
      lseg_owner = Hashtbl.create 256;
      next_lseg = Util.Bin.get_u32 b 31;
      data_tail = Util.Bin.get_u64 b 23;
      object_count = Util.Bin.get_u64 b 35;
      wasted = Util.Bin.get_u64 b 43;
      aux = Some (aux_off, aux_len);
      finalized = true;
      epoch = Util.Bin.get_u32 b 51;
      root = Util.Bin.get_u32 b 55 - 1;
      frames = None;
    }
  in
  (* The auxiliary directory (top level of the multi-level tables): pool
     names, per-pool blob extents, and the lseg ownership table.  Pool
     blobs themselves load lazily, on first access to each pool. *)
  let dir = Vfs.read file ~off:aux_off ~len:aux_len in
  let pool_count = Util.Bin.get_u16 dir 0 in
  let pos = ref 2 in
  let by_index = Array.make pool_count None in
  for i = 0 to pool_count - 1 do
    let pname, p = Util.Bin.get_string dir !pos in
    let blob_off = Util.Bin.get_u64 dir p in
    let blob_len = Util.Bin.get_u32 dir (p + 8) in
    pos := p + 12;
    let pool = fresh_pool t pname in
    pool.blob <- Some (blob_off, blob_len);
    Hashtbl.add t.pools pname pool;
    t.pool_list <- pool :: t.pool_list;
    by_index.(i) <- Some pool
  done;
  let owner_count = Util.Bin.get_u32 dir !pos in
  pos := !pos + 4;
  for _ = 1 to owner_count do
    let lseg = Util.Bin.get_u32 dir !pos in
    let idx = Util.Bin.get_u16 dir (!pos + 4) in
    pos := !pos + 6;
    match by_index.(idx) with
    | Some pool -> Hashtbl.replace t.lseg_owner lseg pool
    | None -> raise (Corrupt "Store.open_existing: lseg owner index out of range")
  done;
  t

let encode_pool_blob pool =
  let buf = Buffer.create 4096 in
  (match pool.policy with
  | Some p -> Policy.encode buf p
  | None -> assert false (* only called on loaded pools *));
  Util.Bin.buf_u32 buf pool.next_pseg;
  Util.Bin.buf_u32 buf pool.next_pseg;
  for id = 0 to pool.next_pseg - 1 do
    match Hashtbl.find_opt pool.psegs id with
    | Some (off, len, crc) ->
      Util.Bin.buf_u64 buf off;
      Util.Bin.buf_u32 buf len;
      Util.Bin.buf_u32 buf crc
    | None -> assert false (* every reserved pseg id is flushed before finalize *)
  done;
  Util.Bin.buf_u32 buf pool.obj_count;
  let lsegs = Hashtbl.fold (fun l a acc -> (l, a) :: acc) pool.lsegs [] in
  let lsegs = List.sort (fun (a, _) (b, _) -> compare a b) lsegs in
  Util.Bin.buf_u32 buf (List.length lsegs);
  List.iter
    (fun (lseg, slots) ->
      Util.Bin.buf_u32 buf lseg;
      let first = slots.(0) in
      let uniform = first >= 0 && Array.for_all (fun p -> p = first) slots in
      if uniform then begin
        Util.Bin.buf_u8 buf 0;
        Util.Bin.buf_u32 buf first
      end
      else begin
        Util.Bin.buf_u8 buf 1;
        Array.iter (fun p -> Util.Bin.buf_u32 buf (p + 1)) slots
      end)
    lsegs;
  Buffer.to_bytes buf

let decode_pool_blob pool b =
  let policy, pos = Policy.decode b 0 in
  pool.policy <- Some policy;
  pool.next_pseg <- Util.Bin.get_u32 b pos;
  let pseg_count = Util.Bin.get_u32 b (pos + 4) in
  let pos = ref (pos + 8) in
  for id = 0 to pseg_count - 1 do
    let off = Util.Bin.get_u64 b !pos in
    let len = Util.Bin.get_u32 b (!pos + 8) in
    let crc = Util.Bin.get_u32 b (!pos + 12) in
    pos := !pos + 16;
    Hashtbl.replace pool.psegs id (off, len, crc)
  done;
  pool.obj_count <- Util.Bin.get_u32 b !pos;
  let lseg_count = Util.Bin.get_u32 b (!pos + 4) in
  pos := !pos + 8;
  for _ = 1 to lseg_count do
    let lseg = Util.Bin.get_u32 b !pos in
    let tag = Util.Bin.get_u8 b (!pos + 4) in
    pos := !pos + 5;
    let slots =
      if tag = 0 then begin
        let p = Util.Bin.get_u32 b !pos in
        pos := !pos + 4;
        Array.make Oid.slots_per_lseg p
      end
      else begin
        let a =
          Array.init Oid.slots_per_lseg (fun i -> Util.Bin.get_u32 b (!pos + (i * 4)) - 1)
        in
        pos := !pos + (Oid.slots_per_lseg * 4);
        a
      end
    in
    Hashtbl.replace pool.lsegs lseg slots
  done

let ensure_loaded pool =
  if not pool.loaded then begin
    (match pool.blob with
    | None -> () (* freshly created pool; nothing persisted yet *)
    | Some (off, len) ->
      (* First access to this pool's auxiliary tables: one charged read,
         cached permanently afterwards. *)
      let b = st_read pool.store ~off ~len in
      decode_pool_blob pool b);
    pool.loaded <- true
  end

let policy_of pool =
  ensure_loaded pool;
  match pool.policy with
  | Some p -> p
  | None -> invalid_arg ("Store: pool has no policy: " ^ pool.pname)

let add_pool t policy =
  (match Hashtbl.find_opt t.pools policy.Policy.name with
  | Some existing ->
    if existing.loaded || existing.blob = None then
      invalid_arg ("Store.add_pool: pool already registered: " ^ policy.Policy.name)
    else begin
      (* Re-opened store: bind the handle; persisted policy wins. *)
      ensure_loaded existing
    end
  | None ->
    let pool = fresh_pool t policy.Policy.name in
    pool.policy <- Some policy;
    pool.loaded <- true;
    Hashtbl.add t.pools policy.Policy.name pool;
    t.pool_list <- pool :: t.pool_list);
  Hashtbl.find t.pools policy.Policy.name

let pool t name =
  match Hashtbl.find_opt t.pools name with
  | Some p -> p
  | None -> raise Not_found

let pool_name pool = pool.pname
let pool_policy pool = policy_of pool
let attach_buffer pool buffer = pool.pbuffer <- Some buffer
let buffer pool = pool.pbuffer

(* ------------------------------------------------------------------ *)
(* Physical segment formats                                            *)

(* Fixed-slot segment: u32 lseg, u16 count, then 255 slots of
   [slot_size] bytes each: u32 length (0xffffffff = empty) + payload. *)
let empty_len = 0xffffffff

let fixed_slot_off slot_size slot = 6 + (slot * slot_size)

(* Packed segment: u16 count, then count x (u32 oid, u32 off, u32 len),
   then object bytes.  Offsets are absolute within the segment. *)
let packed_size ~count ~data_bytes = 2 + (count * 12) + data_bytes

let serialize_packed objs =
  (* [objs] in allocation order *)
  let count = List.length objs in
  let data_bytes = List.fold_left (fun acc (_, b) -> acc + Bytes.length b) 0 objs in
  let total = packed_size ~count ~data_bytes in
  let out = Bytes.make total '\000' in
  Util.Bin.put_u16 out 0 count;
  let data_off = ref (2 + (count * 12)) in
  List.iteri
    (fun i (oid, b) ->
      let base = 2 + (i * 12) in
      Util.Bin.put_u32 out base oid;
      Util.Bin.put_u32 out (base + 4) !data_off;
      Util.Bin.put_u32 out (base + 8) (Bytes.length b);
      Bytes.blit b 0 out !data_off (Bytes.length b);
      data_off := !data_off + Bytes.length b)
    objs;
  out

let packed_find seg oid =
  let count = Util.Bin.get_u16 seg 0 in
  let rec go i =
    if i >= count then None
    else
      let base = 2 + (i * 12) in
      if Util.Bin.get_u32 seg base = oid then
        Some (i, Util.Bin.get_u32 seg (base + 4), Util.Bin.get_u32 seg (base + 8))
      else go (i + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)

let alloc_region t ~align ~size =
  let off = (t.data_tail + align - 1) / align * align in
  t.data_tail <- off + size;
  off

let flush_open_pseg pool =
  match pool.open_pseg with
  | None -> ()
  | Some op ->
    let policy = policy_of pool in
    let pseg_id, bytes =
      match op with
      | Open_fixed { pseg_id; buf; count; lseg } ->
        Util.Bin.put_u32 buf 0 lseg;
        Util.Bin.put_u16 buf 4 count;
        (pseg_id, buf)
      | Open_packed { pseg_id; objs; _ } -> (pseg_id, serialize_packed (List.rev objs))
    in
    let size = Bytes.length bytes in
    let off = alloc_region pool.store ~align:policy.Policy.align ~size in
    st_write pool.store ~off bytes;
    Hashtbl.replace pool.psegs pseg_id (off, size, Util.Crc32.digest_bytes bytes);
    pool.open_pseg <- None

let fresh_lseg pool =
  let t = pool.store in
  let lseg = t.next_lseg in
  t.next_lseg <- t.next_lseg + 1;
  Hashtbl.replace t.lseg_owner lseg pool;
  Hashtbl.replace pool.lsegs lseg (Array.make Oid.slots_per_lseg (-1));
  pool.cur_lseg <- lseg;
  pool.cur_slot <- 0

let alloc_oid pool =
  let policy = policy_of pool in
  if pool.cur_lseg = -1 || pool.cur_slot >= Oid.slots_per_lseg then begin
    (* Fixed-slot segments coincide with logical segments, so a new lseg
       means the previous physical segment is complete. *)
    (match policy.Policy.layout with
    | Policy.Fixed_slots _ -> flush_open_pseg pool
    | Policy.Packed -> ());
    fresh_lseg pool
  end;
  let oid = Oid.make ~lseg:pool.cur_lseg ~slot:pool.cur_slot in
  pool.cur_slot <- pool.cur_slot + 1;
  oid

let slots_of pool lseg =
  match Hashtbl.find_opt pool.lsegs lseg with
  | Some a -> a
  | None -> raise (Corrupt "Store: lseg missing from pool tables")

(* Physical placement of an object under an already-assigned id: shared
   by [allocate], [compact] (which preserves ids) and relocation. *)
let place_object pool ~oid bytes_v =
  let policy = policy_of pool in
  let len = Bytes.length bytes_v in
  let lseg = Oid.lseg oid and slot = Oid.slot oid in
  (match policy.Policy.layout with
  | Policy.Fixed_slots { slot_size } ->
    (match pool.open_pseg with
    | Some (Open_fixed _) -> ()
    | Some (Open_packed _) -> assert false
    | None ->
      let pseg_id = pool.next_pseg in
      pool.next_pseg <- pool.next_pseg + 1;
      let buf = Bytes.make policy.Policy.pseg_size '\xff' in
      pool.open_pseg <- Some (Open_fixed { pseg_id; lseg; buf; count = 0 }));
    (match pool.open_pseg with
    | Some (Open_fixed f) ->
      let base = fixed_slot_off slot_size slot in
      Util.Bin.put_u32 f.buf base len;
      Bytes.blit bytes_v 0 f.buf (base + 4) len;
      f.count <- f.count + 1;
      (slots_of pool lseg).(slot) <- f.pseg_id
    | Some (Open_packed _) | None -> assert false)
  | Policy.Packed ->
    if policy.Policy.singleton then begin
      let pseg_id = pool.next_pseg in
      pool.next_pseg <- pool.next_pseg + 1;
      let seg = serialize_packed [ (oid, bytes_v) ] in
      let off = alloc_region pool.store ~align:policy.Policy.align ~size:(Bytes.length seg) in
      st_write pool.store ~off seg;
      Hashtbl.replace pool.psegs pseg_id (off, Bytes.length seg, Util.Crc32.digest_bytes seg);
      (slots_of pool lseg).(slot) <- pseg_id
    end
    else begin
      (* Close the open segment if this object would overflow it. *)
      (match pool.open_pseg with
      | Some (Open_packed p)
        when p.count > 0
             && packed_size ~count:(p.count + 1) ~data_bytes:(p.data_bytes + len)
                > policy.Policy.pseg_size ->
        flush_open_pseg pool
      | Some (Open_packed _) | None -> ()
      | Some (Open_fixed _) -> assert false);
      (match pool.open_pseg with
      | Some (Open_packed _) -> ()
      | None ->
        let pseg_id = pool.next_pseg in
        pool.next_pseg <- pool.next_pseg + 1;
        pool.open_pseg <- Some (Open_packed { pseg_id; objs = []; count = 0; data_bytes = 0 })
      | Some (Open_fixed _) -> assert false);
      (match pool.open_pseg with
      | Some (Open_packed p) ->
        p.objs <- (oid, bytes_v) :: p.objs;
        p.count <- p.count + 1;
        p.data_bytes <- p.data_bytes + len;
        (slots_of pool lseg).(slot) <- p.pseg_id
      | Some (Open_fixed _) | None -> assert false)
    end)

let allocate pool bytes_v =
  ensure_loaded pool;
  let policy = policy_of pool in
  (match Policy.max_payload policy with
  | Some bound when Bytes.length bytes_v > bound ->
    invalid_arg
      (Printf.sprintf "Store.allocate: %d-byte object exceeds %s pool payload bound %d"
         (Bytes.length bytes_v) pool.pname bound)
  | Some _ | None -> ());
  let oid = alloc_oid pool in
  place_object pool ~oid bytes_v;
  pool.obj_count <- pool.obj_count + 1;
  pool.store.object_count <- pool.store.object_count + 1;
  oid

(* ------------------------------------------------------------------ *)
(* Retrieval                                                           *)

let owner_pool t oid =
  match Hashtbl.find_opt t.lseg_owner (Oid.lseg oid) with
  | Some pool ->
    ensure_loaded pool;
    Some pool
  | None -> None

let pool_of_oid = owner_pool

let locate_slot t oid =
  match owner_pool t oid with
  | None -> None
  | Some pool -> (
    match Hashtbl.find_opt pool.lsegs (Oid.lseg oid) with
    | None -> None
    | Some slots ->
      let pseg = slots.(Oid.slot oid) in
      if pseg < 0 then None else Some (pool, pseg))

let locate_pseg t oid =
  match locate_slot t oid with None -> None | Some (_, pseg) -> Some pseg

let exists t oid = locate_slot t oid <> None

let open_pseg_id = function
  | Open_fixed { pseg_id; _ } -> pseg_id
  | Open_packed { pseg_id; _ } -> pseg_id

let is_open pool pseg =
  match pool.open_pseg with Some op -> open_pseg_id op = pseg | None -> false

(* A buffer miss takes the segment from its frame when one is resident,
   else from the file.  A segment read from the file becomes a frame
   only once it passes its CRC32 check, so corrupted bytes never
   outlive the read that found them. *)
let load_segment pool pseg ~off ~len ~crc =
  let framed =
    match pool.store.frames with
    | Some fr -> Util.Block_cache.find_frame fr ~owner:pool.owner ~seg:pseg
    | None -> None
  in
  match framed with
  | Some bytes -> bytes
  | None ->
    let bytes = st_read pool.store ~off ~len in
    if Util.Crc32.digest_bytes bytes <> crc then
      raise (Corrupt (Printf.sprintf "Store: pseg %d of pool %s fails its CRC32" pseg pool.pname));
    (match pool.store.frames with
    | Some fr ->
      Util.Block_cache.insert_frame fr ~owner:pool.owner ~seg:pseg ~epoch:pool.store.epoch bytes
    | None -> ());
    bytes

(* Fetch segment bytes: from the still-open creation segment, or by
   faulting through the pool's attached buffer. *)
let segment_bytes pool pseg =
  match pool.open_pseg with
  | Some op when open_pseg_id op = pseg -> (
    match op with
    | Open_fixed { buf; _ } -> `Open_fixed buf
    | Open_packed { objs; _ } -> `Open_packed objs)
  | Some _ | None -> (
    match Hashtbl.find_opt pool.psegs pseg with
    | None -> raise (Corrupt (Printf.sprintf "Store: pseg %d of pool %s not on disk" pseg pool.pname))
    | Some (off, len, crc) -> (
      match pool.pbuffer with
      | None -> invalid_arg ("Store: pool has no buffer attached: " ^ pool.pname)
      | Some buffer ->
        `Disk
          (Buffer_pool.fault buffer ~pseg ~load:(fun () -> load_segment pool pseg ~off ~len ~crc))))

(* Whether [segment_bytes] can answer without I/O. *)
let resident pool pseg =
  is_open pool pseg
  ||
  match pool.pbuffer with
  | None -> false
  | Some buffer -> (
    Buffer_pool.resident buffer ~pseg
    ||
    match pool.store.frames with
    | Some fr -> Util.Block_cache.frame_resident fr ~owner:pool.owner ~seg:pseg
    | None -> false)

let extract_object pool oid seg =
  let policy = policy_of pool in
  match (seg, policy.Policy.layout) with
  | `Open_fixed buf, Policy.Fixed_slots { slot_size } | `Disk buf, Policy.Fixed_slots { slot_size }
    ->
    let base = fixed_slot_off slot_size (Oid.slot oid) in
    let len = Util.Bin.get_u32 buf base in
    if len = empty_len then None else Some (Bytes.sub buf (base + 4) len)
  | `Open_packed objs, Policy.Packed ->
    List.find_map (fun (o, b) -> if o = oid then Some (Bytes.copy b) else None) objs
  | `Disk buf, Policy.Packed -> (
    match packed_find buf oid with
    | None -> None
    | Some (_, off, len) -> Some (Bytes.sub buf off len))
  | `Open_fixed _, Policy.Packed | `Open_packed _, Policy.Fixed_slots _ ->
    raise (Corrupt "Store: segment layout does not match pool policy")

let get_opt t oid =
  match locate_slot t oid with
  | None -> None
  | Some (pool, pseg) -> extract_object pool oid (segment_bytes pool pseg)

let get t oid =
  match get_opt t oid with Some b -> b | None -> raise Not_found

(* [locate_slot] would load the pool's tables — a charged read — so the
   slot is looked up only in tables already resident. *)
let fetch_resident t oid =
  match Hashtbl.find_opt t.lseg_owner (Oid.lseg oid) with
  | Some pool when pool.loaded -> (
    match Hashtbl.find_opt pool.lsegs (Oid.lseg oid) with
    | Some slots ->
      let pseg = slots.(Oid.slot oid) in
      if pseg >= 0 && resident pool pseg then extract_object pool oid (segment_bytes pool pseg)
      else None
    | None -> None)
  | Some _ | None -> None

let set_frames t frames = t.frames <- frames

let object_size t oid =
  match locate_slot t oid with
  | None -> None
  | Some (pool, pseg) -> (
    let policy = policy_of pool in
    match (segment_bytes pool pseg, policy.Policy.layout) with
    | `Open_fixed buf, Policy.Fixed_slots { slot_size } | `Disk buf, Policy.Fixed_slots { slot_size }
      ->
      let len = Util.Bin.get_u32 buf (fixed_slot_off slot_size (Oid.slot oid)) in
      if len = empty_len then None else Some len
    | `Open_packed objs, _ ->
      List.find_map (fun (o, b) -> if o = oid then Some (Bytes.length b) else None) objs
    | `Disk buf, Policy.Packed -> (
      match packed_find buf oid with Some (_, _, len) -> Some len | None -> None)
    | `Open_fixed _, Policy.Packed -> raise (Corrupt "Store: layout mismatch"))

(* ------------------------------------------------------------------ *)
(* Modification                                                        *)

(* A flushed segment rewritten in place: the buffered copy and a
   resident frame both take the new image, or a later read would serve
   the old one. *)
let replace_resident pool pseg bytes =
  (match pool.pbuffer with Some buffer -> Buffer_pool.update buffer ~pseg bytes | None -> ());
  match pool.store.frames with
  | Some fr when Util.Block_cache.frame_resident fr ~owner:pool.owner ~seg:pseg ->
    Util.Block_cache.insert_frame fr ~owner:pool.owner ~seg:pseg ~epoch:pool.store.epoch bytes
  | Some _ | None -> ()

let write_back pool pseg bytes =
  match Hashtbl.find_opt pool.psegs pseg with
  | None -> raise (Corrupt "Store.write_back: unknown pseg")
  | Some (off, len, _) ->
    assert (Bytes.length bytes = len);
    st_write pool.store ~off bytes;
    Hashtbl.replace pool.psegs pseg (off, len, Util.Crc32.digest_bytes bytes);
    replace_resident pool pseg bytes

(* Move an object (keeping its id) into fresh segment space of the same
   pool; the old extent becomes wasted space. *)
let relocate pool oid bytes_v = place_object pool ~oid bytes_v

let modify t oid bytes_v =
  match locate_slot t oid with
  | None -> raise Not_found
  | Some (pool, pseg) -> (
    let policy = policy_of pool in
    let new_len = Bytes.length bytes_v in
    let in_open = is_open pool pseg in
    match policy.Policy.layout with
    | Policy.Fixed_slots { slot_size } ->
      let bound = slot_size - 4 in
      if new_len > bound then
        invalid_arg
          (Printf.sprintf "Store.modify: %d bytes exceeds fixed-slot payload %d" new_len bound);
      let base = fixed_slot_off slot_size (Oid.slot oid) in
      if in_open then begin
        match pool.open_pseg with
        | Some (Open_fixed { buf; _ }) ->
          Util.Bin.put_u32 buf base new_len;
          Bytes.blit bytes_v 0 buf (base + 4) new_len
        | _ -> assert false
      end
      else begin
        match segment_bytes pool pseg with
        | `Disk shared ->
          (* Patch a private copy: the faulted image may be a frame other
             readers share.  [write_back] installs the patched one. *)
          let buf = Bytes.copy shared in
          Util.Bin.put_u32 buf base new_len;
          Bytes.blit bytes_v 0 buf (base + 4) new_len;
          write_back pool pseg buf
        | `Open_fixed _ | `Open_packed _ -> assert false
      end
    | Policy.Packed ->
      if in_open then begin
        match pool.open_pseg with
        | Some (Open_packed p) ->
          let old_len = ref 0 in
          p.objs <-
            List.map
              (fun (o, b) ->
                if o = oid then begin
                  old_len := Bytes.length b;
                  (o, bytes_v)
                end
                else (o, b))
              p.objs;
          p.data_bytes <- p.data_bytes - !old_len + new_len
        | _ -> assert false
      end
      else begin
        match segment_bytes pool pseg with
        | `Disk buf -> (
          match packed_find buf oid with
          | None -> raise (Corrupt "Store.modify: object missing from its segment")
          | Some (dir_index, off, old_len) ->
            if new_len <= old_len then begin
              (* Fits in place: patch data and directory length, in a
                 private copy as above. *)
              let buf = Bytes.copy buf in
              Bytes.blit bytes_v 0 buf off new_len;
              Util.Bin.put_u32 buf (2 + (dir_index * 12) + 8) new_len;
              t.wasted <- t.wasted + (old_len - new_len);
              write_back pool pseg buf
            end
            else begin
              (* Does not fit: relocate, stranding the old extent — the
                 paper's space-management problem for growing inverted
                 lists. *)
              t.wasted <- t.wasted + old_len;
              relocate pool oid bytes_v
            end)
        | `Open_fixed _ | `Open_packed _ -> assert false
      end)

let delete t oid =
  match locate_slot t oid with
  | None -> raise Not_found
  | Some (pool, pseg) ->
    let stranded = match object_size t oid with Some n -> n | None -> 0 in
    let in_open = is_open pool pseg in
    if in_open then begin
      match pool.open_pseg with
      | Some (Open_packed p) ->
        p.objs <- List.filter (fun (o, _) -> o <> oid) p.objs;
        p.count <- p.count - 1;
        p.data_bytes <- p.data_bytes - stranded
      | Some (Open_fixed { buf; _ }) ->
        let policy = policy_of pool in
        (match policy.Policy.layout with
        | Policy.Fixed_slots { slot_size } ->
          Util.Bin.put_u32 buf (fixed_slot_off slot_size (Oid.slot oid)) empty_len
        | Policy.Packed -> assert false)
      | None -> assert false
    end
    else t.wasted <- t.wasted + stranded;
    (slots_of pool (Oid.lseg oid)).(Oid.slot oid) <- -1;
    pool.obj_count <- pool.obj_count - 1;
    t.object_count <- t.object_count - 1

let reserve t oids =
  let pinned = ref [] in
  List.iter
    (fun oid ->
      match locate_slot t oid with
      | None -> ()
      | Some (pool, pseg) -> (
        match pool.pbuffer with
        | None -> ()
        | Some buffer -> if Buffer_pool.pin buffer ~pseg then pinned := (buffer, pseg) :: !pinned))
    oids;
  let released = ref false in
  fun () ->
    if not !released then begin
      released := true;
      List.iter (fun (buffer, pseg) -> Buffer_pool.unpin buffer ~pseg) !pinned
    end

(* ------------------------------------------------------------------ *)
(* Finalize                                                            *)

let finalize t =
  let pools = List.rev t.pool_list in
  List.iter ensure_loaded pools;
  List.iter flush_open_pseg pools;
  List.iter (fun p -> p.cur_lseg <- -1) pools;
  let blobs =
    List.map
      (fun pool ->
        let blob = encode_pool_blob pool in
        let off = alloc_region t ~align:1 ~size:(Bytes.length blob) in
        st_write t ~off blob;
        pool.blob <- Some (off, Bytes.length blob);
        (pool, off, Bytes.length blob))
      pools
  in
  let dir = Buffer.create 1024 in
  Util.Bin.buf_u16 dir (List.length blobs);
  List.iter
    (fun (pool, off, len) ->
      Util.Bin.buf_string dir pool.pname;
      Util.Bin.buf_u64 dir off;
      Util.Bin.buf_u32 dir len)
    blobs;
  let index_of pool =
    let rec go i = function
      | [] -> raise (Corrupt "Store.finalize: unregistered owner pool")
      | (p, _, _) :: rest -> if p == pool then i else go (i + 1) rest
    in
    go 0 blobs
  in
  let owners = Hashtbl.fold (fun lseg pool acc -> (lseg, pool) :: acc) t.lseg_owner [] in
  let owners = List.sort (fun (a, _) (b, _) -> compare a b) owners in
  Util.Bin.buf_u32 dir (List.length owners);
  List.iter
    (fun (lseg, pool) ->
      Util.Bin.buf_u32 dir lseg;
      Util.Bin.buf_u16 dir (index_of pool))
    owners;
  let dir_bytes = Buffer.to_bytes dir in
  let dir_off = alloc_region t ~align:1 ~size:(Bytes.length dir_bytes) in
  st_write t ~off:dir_off dir_bytes;
  t.aux <- Some (dir_off, Bytes.length dir_bytes);
  t.finalized <- true;
  write_header t;
  (* Durability: an unjournaled finalize syncs the file itself; under a
     journal the enclosing commit is the durability point (the header
     written above is logged, so nothing names the new tables before
     the log fsync). *)
  match t.journal with None -> Vfs.fsync t.file | Some _ -> ()

let vfs t = t.vfs
let file_name t = Vfs.file_name t.file

let file_size t =
  match t.journal with Some j -> Journal.data_size j | None -> Vfs.size t.file
let object_count t = t.object_count
let pool_object_count pool =
  ensure_loaded pool;
  pool.obj_count
let wasted_bytes t = t.wasted
let aux_table_bytes t = match t.aux with None -> 0 | Some (_, len) -> len

(* ------------------------------------------------------------------ *)
(* The versioned root                                                   *)

let epoch t = t.epoch
let root t = if t.root < 0 then None else Some t.root

let set_root t ~epoch ~root =
  if epoch < 0 then invalid_arg "Store.set_root: negative epoch";
  (match root with
  | Some oid when oid < 0 -> invalid_arg "Store.set_root: negative root oid"
  | Some _ | None -> ());
  t.epoch <- epoch;
  t.root <- (match root with Some oid -> oid | None -> -1)

(* ------------------------------------------------------------------ *)
(* Journaling                                                          *)

let enable_journal t ~log_file =
  (match t.journal with
  | Some _ -> invalid_arg "Store.enable_journal: journal already enabled"
  | None -> ());
  t.journal <- Some (Journal.create t.vfs ~log_file ~data_file:(Vfs.file_name t.file))

let journal t = t.journal

let transact t f =
  match t.journal with
  | None -> invalid_arg "Store.transact: no journal enabled"
  | Some j ->
    Journal.begin_batch j;
    (match f () with
    | result ->
      Journal.commit j;
      result
    | exception e ->
      Journal.abort j;
      raise e)

let recover_journal vfs ~file ~log_file =
  let recovery = Journal.recover (Journal.attach vfs ~log_file ~data_file:file) in
  (* A crash before the commit point can leave the batch's copy-on-write
     extents past the committed tail, where nothing reaches them: cut
     them off so the file holds exactly what its finalized header names.
     The truncation is metadata, durable at once, so a crash here is
     harmless and a second recovery finds nothing to do. *)
  let f = Vfs.open_file vfs file in
  (if Vfs.size f >= header_size then
     let b = Vfs.read f ~off:0 ~len:header_size in
     if Bytes.sub_string b 0 4 = magic && Util.Bin.get_u8 b 6 = 1 then
       match Util.Bin.get_u64 b 23 with
       | tail when tail >= header_size && Vfs.size f > tail -> Vfs.truncate f tail
       | _ | (exception Invalid_argument _) -> ());
  recovery

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)

let pools t =
  let ps = List.rev t.pool_list in
  List.iter ensure_loaded ps;
  ps

let pool_segments pool =
  ensure_loaded pool;
  Hashtbl.fold (fun id (off, len, _) acc -> (id, (off, len)) :: acc) pool.psegs []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let segment_crc pool pseg =
  ensure_loaded pool;
  match Hashtbl.find_opt pool.psegs pseg with Some (_, _, crc) -> Some crc | None -> None

(* Re-read the segment from the file (bypassing any buffered copy) and
   compare against the recorded checksum — the fsck CRC pass. *)
let verify_segment_crc pool pseg =
  ensure_loaded pool;
  match Hashtbl.find_opt pool.psegs pseg with
  | None -> true (* still open in memory: no on-disk image to damage *)
  | Some (off, len, crc) -> Util.Crc32.digest_bytes (st_read pool.store ~off ~len) = crc

(* A repair is only a repair if the result is byte-identical to what
   was originally written: the replacement must match the recorded
   length and CRC32 before a single byte reaches the file. *)
let repair_segment pool ~pseg replacement =
  ensure_loaded pool;
  let t = pool.store in
  match Hashtbl.find_opt pool.psegs pseg with
  | None -> Error (Printf.sprintf "pool %s has no flushed pseg %d" pool.pname pseg)
  | Some (off, len, crc) ->
    if Bytes.length replacement <> len then
      Error
        (Printf.sprintf "replacement is %d bytes, pseg %d holds %d" (Bytes.length replacement)
           pseg len)
    else if Util.Crc32.digest_bytes replacement <> crc then
      Error (Printf.sprintf "replacement fails pseg %d's recorded CRC32" pseg)
    else begin
      (match t.journal with
      | Some j when not (Journal.in_batch j) ->
        (* Journal the rewrite so a crash mid-heal recovers to either
           the damaged or the healed image, never a torn mix. *)
        transact t (fun () -> st_write t ~off replacement)
      | Some _ ->
        (* Already inside a batch: ride the caller's commit. *)
        st_write t ~off replacement
      | None ->
        st_write t ~off replacement;
        Vfs.fsync t.file);
      replace_resident pool pseg replacement;
      Ok ()
    end

let pool_slot_tables pool =
  ensure_loaded pool;
  Hashtbl.fold (fun lseg slots acc -> (lseg, Array.copy slots) :: acc) pool.lsegs []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let segment_raw pool pseg =
  ensure_loaded pool;
  match segment_bytes pool pseg with
  | `Disk bytes -> bytes
  | `Open_fixed buf -> Bytes.copy buf
  | `Open_packed objs -> serialize_packed (List.rev objs)

let parse_packed_directory seg =
  if Bytes.length seg < 2 then raise (Corrupt "parse_packed_directory: segment too short");
  let count = Util.Bin.get_u16 seg 0 in
  if 2 + (count * 12) > Bytes.length seg then
    raise (Corrupt "parse_packed_directory: directory extends past segment");
  List.init count (fun i ->
      let base = 2 + (i * 12) in
      (Util.Bin.get_u32 seg base, Util.Bin.get_u32 seg (base + 4), Util.Bin.get_u32 seg (base + 8)))

let fixed_slot_length ~slot_size seg ~slot =
  let base = fixed_slot_off slot_size slot in
  if base + 4 > Bytes.length seg then raise (Corrupt "fixed_slot_length: slot outside segment");
  let len = Util.Bin.get_u32 seg base in
  if len = empty_len then None else Some len

(* ------------------------------------------------------------------ *)
(* Compaction                                                          *)

let compact t ~file =
  if not t.finalized then invalid_arg "Store.compact: finalize the store first";
  let pools_src = pools t in
  let dst = create t.vfs file in
  (* Recreate the pools under the same names/policies; the destination
     needs buffers only if it is queried, not for placement. *)
  let dst_pool_of =
    let table = Hashtbl.create 4 in
    List.iter
      (fun src ->
        let policy = policy_of src in
        Hashtbl.replace table src.pname (add_pool dst policy))
      pools_src;
    fun name -> Hashtbl.find table name
  in
  (* Replay logical segments in global order so every surviving object
     keeps its id (dictionary locators stay valid). *)
  for lseg = 0 to t.next_lseg - 1 do
    match Hashtbl.find_opt t.lseg_owner lseg with
    | None -> raise (Corrupt "Store.compact: logical segment without an owner")
    | Some src ->
      ensure_loaded src;
      let dpool = dst_pool_of src.pname in
      (* Fixed-layout segments coincide with lsegs: close the previous
         one before starting the next. *)
      (match (policy_of dpool).Policy.layout with
      | Policy.Fixed_slots _ -> flush_open_pseg dpool
      | Policy.Packed -> ());
      assert (dst.next_lseg = lseg);
      fresh_lseg dpool;
      (match Hashtbl.find_opt src.lsegs lseg with
      | None -> ()
      | Some slots ->
        Array.iteri
          (fun slot pseg ->
            if pseg >= 0 then begin
              let oid = Oid.make ~lseg ~slot in
              place_object dpool ~oid (get t oid);
              dpool.obj_count <- dpool.obj_count + 1;
              dst.object_count <- dst.object_count + 1
            end)
          slots)
  done;
  (* The epoch lineage survives compaction: ids are preserved, so the
     sealed root object (if any) still names valid objects. *)
  dst.epoch <- t.epoch;
  dst.root <- t.root;
  finalize dst;
  dst
