module Clock = Clock
module Cost_model = Cost_model
module Fault = Fault

exception Crash

type counters = {
  disk_inputs : int;
  disk_outputs : int;
  file_accesses : int;
  bytes_read : int;
  bytes_written : int;
  os_cache_hits : int;
  os_cache_misses : int;
}

type file = {
  owner : t;
  fid : int;
  name : string;
  mutable data : Bytes.t; (* the OS view: cache + device *)
  mutable durable : Bytes.t; (* what the device actually holds *)
  mutable size : int;
}

and t = {
  model : Cost_model.t;
  clk : Clock.t;
  os_cache : (int * int, unit) Util.Lru.t; (* (file id, block number) *)
  files : (string, file) Hashtbl.t;
  dirty : (int * int, file) Hashtbl.t; (* written but not yet flushed *)
  mutable fault : Fault.plan;
  mutable next_fid : int;
  mutable last_disk_block : (int * int) option; (* disk head position *)
  mutable c_disk_inputs : int;
  mutable c_disk_outputs : int;
  mutable c_file_accesses : int;
  mutable c_bytes_read : int;
  mutable c_bytes_written : int;
}

let create ?(cost_model = Cost_model.default) () =
  {
    model = cost_model;
    clk = Clock.create ();
    os_cache = Util.Lru.create ~capacity:cost_model.Cost_model.os_cache_blocks;
    files = Hashtbl.create 16;
    dirty = Hashtbl.create 64;
    fault = Fault.none ();
    next_fid = 0;
    last_disk_block = None;
    c_disk_inputs = 0;
    c_disk_outputs = 0;
    c_file_accesses = 0;
    c_bytes_read = 0;
    c_bytes_written = 0;
  }

let cost_model t = t.model
let clock t = t.clk

let counters t =
  let os = Util.Lru.stats t.os_cache in
  {
    disk_inputs = t.c_disk_inputs;
    disk_outputs = t.c_disk_outputs;
    file_accesses = t.c_file_accesses;
    bytes_read = t.c_bytes_read;
    bytes_written = t.c_bytes_written;
    os_cache_hits = os.Util.Cache_stats.hits;
    os_cache_misses = Util.Cache_stats.misses os;
  }

let reset_counters t =
  t.c_disk_inputs <- 0;
  t.c_disk_outputs <- 0;
  t.c_file_accesses <- 0;
  t.c_bytes_read <- 0;
  t.c_bytes_written <- 0;
  Util.Lru.reset_stats t.os_cache

let diff_counters ~later ~earlier =
  {
    disk_inputs = later.disk_inputs - earlier.disk_inputs;
    disk_outputs = later.disk_outputs - earlier.disk_outputs;
    file_accesses = later.file_accesses - earlier.file_accesses;
    bytes_read = later.bytes_read - earlier.bytes_read;
    bytes_written = later.bytes_written - earlier.bytes_written;
    os_cache_hits = later.os_cache_hits - earlier.os_cache_hits;
    os_cache_misses = later.os_cache_misses - earlier.os_cache_misses;
  }

let purge_os_cache t = Util.Lru.clear t.os_cache

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)

let set_fault t plan = t.fault <- plan
let clear_fault t = t.fault <- Fault.none ()
let fault_io_count t = Fault.io_count t.fault

(* Consult the plan before a physical block I/O.  A bit flip is media
   corruption: it damages both the OS view and the durable image, so the
   garbage survives cache purges and crashes alike.  A stall is a slow
   device: the transfer completes, but the extra latency is charged to
   the simulated disk clock first. *)
let fault_block f kind ~blk =
  let t = f.owner in
  match Fault.observe t.fault ~file:f.name kind with
  | Fault.Proceed -> ()
  | Fault.Crash -> raise Crash
  | Fault.Stall ms -> if ms > 0.0 then Clock.charge_disk t.clk ms
  | Fault.Flip_bit bit -> (
    match kind with
    | Fault.Write -> ()
    | Fault.Read ->
      let bs = t.model.Cost_model.block_size in
      (* Land the flip inside the file's bytes of this block, so the
         corruption is never silently out of range. *)
      let block_bytes = min bs (f.size - (blk * bs)) in
      let byte = if block_bytes <= 0 then f.size else (blk * bs) + (bit / 8 mod block_bytes) in
      if byte < f.size then begin
        let mask = Char.chr (1 lsl (bit mod 8)) in
        let flip buf =
          if byte < Bytes.length buf then
            Bytes.set buf byte (Char.chr (Char.code (Bytes.get buf byte) lxor Char.code mask))
        in
        flip f.data;
        flip f.durable
      end)
  | Fault.Flip_bits { targets; first; last } -> (
    match kind with
    | Fault.Write -> ()
    | Fault.Read ->
      (* Rot over an absolute byte range, clamped to the file: each
         target claims a distinct (byte, bit) position by linear probing
         from its hash, so N targets always flip N different bits (up to
         the range's capacity). *)
      let lo = max 0 first and hi = min last (f.size - 1) in
      if hi >= lo then begin
        let span_bits = (hi - lo + 1) * 8 in
        let chosen = Hashtbl.create 8 in
        List.iter
          (fun target ->
            let rec probe tries =
              if tries < span_bits then begin
                let p = (target + tries) mod span_bits in
                if Hashtbl.mem chosen p then probe (tries + 1) else Hashtbl.add chosen p ()
              end
            in
            probe 0)
          targets;
        Hashtbl.iter
          (fun p () ->
            let byte = lo + (p / 8) in
            let mask = 1 lsl (p mod 8) in
            let flip buf =
              if byte < Bytes.length buf then
                Bytes.set buf byte (Char.chr (Char.code (Bytes.get buf byte) lxor mask))
            in
            flip f.data;
            flip f.durable)
          chosen
      end)

(* ------------------------------------------------------------------ *)
(* Files                                                               *)

let open_file t name =
  match Hashtbl.find_opt t.files name with
  | Some f -> f
  | None ->
    let f =
      { owner = t; fid = t.next_fid; name; data = Bytes.create 0; durable = Bytes.create 0;
        size = 0 }
    in
    t.next_fid <- t.next_fid + 1;
    Hashtbl.add t.files name f;
    f

let file_exists t name = Hashtbl.mem t.files name

(* Forget a file's blocks from [from_blk] on.  The dirty table is
   collected before removing: we must not remove while iterating. *)
let drop_file_blocks t ~fid ~from_blk =
  ignore (Util.Lru.retain t.os_cache ~keep:(fun (f, blk) () -> f <> fid || blk < from_blk));
  let stale_dirty = ref [] in
  Hashtbl.iter (fun (f, blk) _ -> if f = fid && blk >= from_blk then stale_dirty := (f, blk) :: !stale_dirty) t.dirty;
  List.iter (Hashtbl.remove t.dirty) !stale_dirty

let delete_file t name =
  match Hashtbl.find_opt t.files name with
  | None -> ()
  | Some f ->
    Hashtbl.remove t.files name;
    drop_file_blocks t ~fid:f.fid ~from_blk:0;
    (* The head must not keep pointing at a dead fid: a later read could
       otherwise be misjudged (the model's fids are never reused, but
       the stale position is still wrong — the platters under it now
       belong to free space). *)
    (match t.last_disk_block with
    | Some (fid, _) when fid = f.fid -> t.last_disk_block <- None
    | Some _ | None -> ())

let file_names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.files [] |> List.sort compare

let file_name f = f.name
let size f = f.size

let charge_copy_and_syscall t len =
  Clock.charge_syscall t.clk t.model.Cost_model.syscall_ms;
  Clock.charge_copy t.clk (float_of_int len /. 1024.0 *. t.model.Cost_model.copy_ms_per_kb)

(* Fault in every block touched by [off, off+len), counting hits and misses. *)
let touch_blocks_read f ~off ~len =
  let t = f.owner in
  let bs = t.model.Cost_model.block_size in
  if len > 0 then
    for blk = off / bs to (off + len - 1) / bs do
      match Util.Lru.find t.os_cache (f.fid, blk) with
      | Some () -> ()
      | None ->
        fault_block f Fault.Read ~blk;
        t.c_disk_inputs <- t.c_disk_inputs + 1;
        let sequential =
          match t.last_disk_block with
          | Some (fid, last) -> fid = f.fid && blk = last + 1
          | None -> false
        in
        Clock.charge_disk t.clk
          (if sequential then t.model.Cost_model.disk_seq_read_ms
           else t.model.Cost_model.disk_read_ms);
        t.last_disk_block <- Some (f.fid, blk);
        Util.Lru.add t.os_cache (f.fid, blk) ~cost:1 ()
    done

(* Write-back: the blocks land dirty in the OS cache; nothing reaches
   the device (or the durable image) until [fsync]. *)
let touch_blocks_write f ~off ~len =
  let t = f.owner in
  let bs = t.model.Cost_model.block_size in
  if len > 0 then
    for blk = off / bs to (off + len - 1) / bs do
      Hashtbl.replace t.dirty (f.fid, blk) f;
      Util.Lru.add t.os_cache (f.fid, blk) ~cost:1 ()
    done

let read f ~off ~len =
  if off < 0 || len < 0 || off + len > f.size then
    invalid_arg
      (Printf.sprintf "Vfs.read %s: range [%d, %d) outside file of size %d" f.name off
         (off + len) f.size);
  let t = f.owner in
  t.c_file_accesses <- t.c_file_accesses + 1;
  t.c_bytes_read <- t.c_bytes_read + len;
  charge_copy_and_syscall t len;
  touch_blocks_read f ~off ~len;
  Bytes.sub f.data off len

let ensure_capacity f n =
  let cap = Bytes.length f.data in
  if n > cap then begin
    let cap' = max n (max 4096 (cap * 2)) in
    let data' = Bytes.make cap' '\000' in
    Bytes.blit f.data 0 data' 0 f.size;
    f.data <- data';
    let durable' = Bytes.make cap' '\000' in
    Bytes.blit f.durable 0 durable' 0 (Bytes.length f.durable);
    f.durable <- durable'
  end

let write f ~off b =
  if off < 0 then invalid_arg "Vfs.write: negative offset";
  let len = Bytes.length b in
  let t = f.owner in
  ensure_capacity f (off + len);
  Bytes.blit b 0 f.data off len;
  if off + len > f.size then f.size <- off + len;
  t.c_file_accesses <- t.c_file_accesses + 1;
  t.c_bytes_written <- t.c_bytes_written + len;
  charge_copy_and_syscall t len;
  touch_blocks_write f ~off ~len

let append f b =
  let off = f.size in
  write f ~off b;
  off

let truncate f n =
  if n < 0 then invalid_arg "Vfs.truncate: negative size";
  let t = f.owner in
  (* A real truncate is a system call like any other metadata change. *)
  Clock.charge_syscall t.clk t.model.Cost_model.syscall_ms;
  t.c_file_accesses <- t.c_file_accesses + 1;
  if n > f.size then begin
    ensure_capacity f n;
    Bytes.fill f.data f.size (n - f.size) '\000'
  end
  else begin
    (* Shrink: blocks wholly past the new EOF must leave the OS cache
       (they would otherwise serve stale hits if the file regrows) and
       the dirty set (there is nothing left to flush).  The discarded
       tail is zeroed in both images so it cannot resurface. *)
    let bs = t.model.Cost_model.block_size in
    drop_file_blocks t ~fid:f.fid ~from_blk:((n + bs - 1) / bs);
    let zero_tail buf =
      let cap = Bytes.length buf in
      if n < cap then Bytes.fill buf n (cap - n) '\000'
    in
    zero_tail f.data;
    zero_tail f.durable
  end;
  f.size <- n

(* ------------------------------------------------------------------ *)
(* Durability                                                          *)

let flush_block f blk =
  let t = f.owner in
  let bs = t.model.Cost_model.block_size in
  fault_block f Fault.Write ~blk;
  (* The block transfers: charge it, move the head, persist the bytes. *)
  t.c_disk_outputs <- t.c_disk_outputs + 1;
  Clock.charge_disk t.clk t.model.Cost_model.disk_write_ms;
  t.last_disk_block <- Some (f.fid, blk);
  let lo = blk * bs in
  let hi = min (lo + bs) (Bytes.length f.data) in
  if hi > lo then Bytes.blit f.data lo f.durable lo (hi - lo);
  Hashtbl.remove t.dirty (f.fid, blk)

let fsync f =
  let t = f.owner in
  Clock.charge_syscall t.clk t.model.Cost_model.syscall_ms;
  let blocks =
    Hashtbl.fold (fun (fid, blk) _ acc -> if fid = f.fid then blk :: acc else acc) t.dirty []
  in
  (* Ascending order: a crash mid-fsync durably persists a prefix of the
     dirty blocks — the torn-write failure mode. *)
  List.iter (flush_block f) (List.sort compare blocks)

let sync t =
  let files = Hashtbl.fold (fun _ f acc -> if List.memq f acc then acc else f :: acc) t.dirty [] in
  List.iter fsync (List.sort (fun a b -> compare a.fid b.fid) files)

let dirty_blocks t = Hashtbl.length t.dirty

(* Replicate a file's current OS-view contents into another file system,
   durably.  Reads are charged to the source, writes and the flush to
   the destination — exactly what a byte-copy over two devices costs. *)
let copy_file t name ~into =
  if not (Hashtbl.mem t.files name) then
    invalid_arg ("Vfs.copy_file: no such file: " ^ name);
  let src = open_file t name in
  let dst = open_file into name in
  truncate dst 0;
  let n = size src in
  if n > 0 then write dst ~off:0 (read src ~off:0 ~len:n);
  fsync dst

(* The state a machine reboot would find: every file at its metadata
   size, with only flushed block contents.  Metadata operations (create,
   delete, truncate, size changes) are modelled as journaled by the file
   system and hence durable immediately; data blocks are durable only
   once fsynced. *)
let crash_image t =
  let t' = create ~cost_model:t.model () in
  let files = Hashtbl.fold (fun _ f acc -> f :: acc) t.files [] in
  let files = List.sort (fun a b -> compare a.fid b.fid) files in
  List.iter
    (fun f ->
      let f' = open_file t' f.name in
      ensure_capacity f' f.size;
      let n = min f.size (Bytes.length f.durable) in
      if n > 0 then begin
        Bytes.blit f.durable 0 f'.data 0 n;
        Bytes.blit f.durable 0 f'.durable 0 n
      end;
      f'.size <- f.size)
    files;
  t'
