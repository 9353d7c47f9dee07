type t = {
  vfs : Vfs.t;
  log : Vfs.file;
  data : Vfs.file;
  mutable batch : (int * bytes) list option; (* newest first, None = no batch *)
  mutable boundary : int; (* the open batch's split point, see [begin_batch] *)
  mutable logged_bytes : int;
  mutable committed_lsn : int;
  mutable subscribers : (lsn:int -> bytes -> unit) list; (* reverse order *)
}

let terminator = 0xffffffffffffff (* fits u64 writer (non-negative OCaml int) *)

let create vfs ~log_file ~data_file =
  let log = Vfs.open_file vfs log_file in
  Vfs.truncate log 0;
  {
    vfs;
    log;
    data = Vfs.open_file vfs data_file;
    batch = None;
    boundary = 0;
    logged_bytes = 0;
    committed_lsn = 0;
    subscribers = [];
  }

let attach vfs ~log_file ~data_file =
  {
    vfs;
    log = Vfs.open_file vfs log_file;
    data = Vfs.open_file vfs data_file;
    batch = None;
    boundary = 0;
    logged_bytes = 0;
    committed_lsn = 0;
    subscribers = [];
  }

let log_file t = Vfs.file_name t.log
let data_file t = Vfs.file_name t.data
let lsn t = t.committed_lsn
let on_commit t f = t.subscribers <- f :: t.subscribers

let in_batch t = t.batch <> None

(* The boundary is the data file's committed end rounded up to a whole
   block: no block at or past it holds a committed byte, so writes there
   can reach the device before the commit point without tearing one. *)
let begin_batch t =
  if in_batch t then invalid_arg "Journal.begin_batch: batch already open";
  let bs = (Vfs.cost_model t.vfs).Vfs.Cost_model.block_size in
  t.boundary <- (Vfs.size t.data + bs - 1) / bs * bs;
  t.batch <- Some []

let write t ~off b =
  match t.batch with
  | None -> Vfs.write t.data ~off b
  | Some pending -> t.batch <- Some ((off, Bytes.copy b) :: pending)

(* Read [off, off+len) as if pending writes had been applied: start from
   the data file (zero-padded past its end) and overlay each pending
   write, oldest first. *)
let read t ~off ~len =
  match t.batch with
  | None -> Vfs.read t.data ~off ~len
  | Some pending ->
    let visible_size =
      List.fold_left
        (fun acc (o, b) -> max acc (o + Bytes.length b))
        (Vfs.size t.data) pending
    in
    if off < 0 || len < 0 || off + len > visible_size then
      invalid_arg "Journal.read: range outside visible data";
    let out = Bytes.make len '\000' in
    let data_size = Vfs.size t.data in
    let from_data = min len (max 0 (data_size - off)) in
    if from_data > 0 then Bytes.blit (Vfs.read t.data ~off ~len:from_data) 0 out 0 from_data;
    List.iter
      (fun (o, b) ->
        let blen = Bytes.length b in
        let lo = max off o and hi = min (off + len) (o + blen) in
        if lo < hi then Bytes.blit b (lo - o) out (lo - off) (hi - lo))
      (List.rev pending);
    out

let data_size t =
  match t.batch with
  | None -> Vfs.size t.data
  | Some pending ->
    List.fold_left (fun acc (o, b) -> max acc (o + Bytes.length b)) (Vfs.size t.data) pending

let pending_writes t = match t.batch with None -> 0 | Some p -> List.length p
let log_bytes_written t = t.logged_bytes

let apply_to_data t writes = List.iter (fun (off, b) -> Vfs.write t.data ~off b) writes

(* A batch's sealed log image: every record, then the commit marker
   sealing them with a CRC32 over their serialised image. *)
let seal writes =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (off, b) ->
      Util.Bin.buf_u64 buf off;
      Util.Bin.buf_u32 buf (Bytes.length b);
      Buffer.add_bytes buf b)
    writes;
  let records = Buffer.to_bytes buf in
  Util.Bin.buf_u64 buf terminator;
  Util.Bin.buf_u32 buf (Util.Crc32.digest_bytes records);
  Buffer.to_bytes buf

(* Split the pending writes (newest first) at [boundary] into the part
   below it and the part at or past it, each in batch order; a write
   straddling the boundary contributes a piece to each. *)
let split_at boundary pending =
  List.fold_left
    (fun (below, above) (off, b) ->
      let len = Bytes.length b in
      if off + len <= boundary then ((off, b) :: below, above)
      else if off >= boundary then (below, (off, b) :: above)
      else
        let k = boundary - off in
        ((off, Bytes.sub b 0 k) :: below, (boundary, Bytes.sub b k (len - k)) :: above))
    ([], []) pending

let commit t =
  match t.batch with
  | None -> invalid_arg "Journal.commit: no batch open"
  | Some pending ->
    let below, above = split_at t.boundary pending in
    (* 1. Copy-on-write extents: nothing durable reaches a byte at or
       past the boundary until the logged writes below it say so, so
       these go straight to the data file and are made durable before
       the commit point.  A crash from here to the log fsync leaves
       them unreachable past the committed end. *)
    if above <> [] then begin
      apply_to_data t above;
      Vfs.fsync t.data
    end;
    (* 2. Write-ahead: only the writes that overwrite committed bytes.
       The batch is committed the instant the log fsync completes — a
       torn log tail or a bit-flipped record fails the CRC and is
       discarded. *)
    if below <> [] then begin
      let log_image = seal below in
      Vfs.truncate t.log 0;
      ignore (Vfs.append t.log log_image);
      Vfs.fsync t.log;
      t.logged_bytes <- t.logged_bytes + Bytes.length log_image
    end;
    (* The batch is now committed: stream a sealed image of every write
       to subscribers before the apply phase, so a crash while applying
       still leaves every replica holding the committed batch. *)
    t.committed_lsn <- t.committed_lsn + 1;
    if t.subscribers <> [] then begin
      let image = seal (List.rev pending) in
      List.iter (fun f -> f ~lsn:t.committed_lsn image) (List.rev t.subscribers)
    end;
    (* 3. Apply the logged writes to the data file, and make them
       durable before the log is dropped — otherwise the checkpoint
       could outlive the data. *)
    if below <> [] then begin
      apply_to_data t below;
      Vfs.fsync t.data;
      Vfs.truncate t.log 0
    end;
    t.batch <- None

let abort t =
  match t.batch with
  | None -> invalid_arg "Journal.abort: no batch open"
  | Some _ -> t.batch <- None

type recovery = Replayed of int | Discarded of int | Clean

(* Parse the log: (writes, complete) where [complete] means the commit
   marker was found and its CRC32 matches the record image — anything
   else (torn tail, bit flip, garbage) makes the batch incomplete. *)
let parse_log bytes =
  let size = Bytes.length bytes in
  let rec go pos acc =
    if pos + 12 > size then (List.rev acc, false)
    (* The marker is matched on the raw 8 bytes: a decoder working in
       OCaml's 63-bit ints cannot see bit 63, and a damaged marker must
       never pass for a commit. *)
    else if Bytes.get_int64_le bytes pos = Int64.of_int terminator then begin
      let crc = Util.Bin.get_u32 bytes (pos + 8) in
      (List.rev acc, crc = Util.Crc32.digest_sub bytes ~pos:0 ~len:pos)
    end
    else begin
      (* A flipped high bit can push the stored u64 outside OCaml's int
         range; an undecodable offset is corruption, not a crash. *)
      match Util.Bin.get_u64 bytes pos with
      | exception Invalid_argument _ -> (List.rev acc, false)
      | off ->
        let len = Util.Bin.get_u32 bytes (pos + 8) in
        if pos + 12 + len > size then (List.rev acc, false)
        else go (pos + 12 + len) ((off, Bytes.sub bytes (pos + 12) len) :: acc)
    end
  in
  go 0 []

let recover t =
  let size = Vfs.size t.log in
  if size = 0 then Clean
  else begin
    let image = Vfs.read t.log ~off:0 ~len:size in
    let writes, complete = parse_log image in
    let result =
      if complete then begin
        apply_to_data t writes;
        (* The replay must be durable before the log is dropped, or a
           second crash would lose the committed batch for good. *)
        Vfs.fsync t.data;
        Replayed (List.length writes)
      end
      else Discarded (List.length writes)
    in
    Vfs.truncate t.log 0;
    result
  end
