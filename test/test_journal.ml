(* The redo journal: atomicity, read-your-writes, crash recovery at
   every truncation point. *)

let setup () =
  let vfs = Vfs.create () in
  let data = Vfs.open_file vfs "data" in
  ignore (Vfs.append data (Bytes.of_string "0123456789"));
  (vfs, data, Mneme.Journal.create vfs ~log_file:"log" ~data_file:"data")

let read_data data = Bytes.to_string (Vfs.read data ~off:0 ~len:(Vfs.size data))

(* Every file system here uses the default cost model: a batch's
   boundary is a multiple of this block size. *)
let bs = Vfs.Cost_model.default.Vfs.Cost_model.block_size

let test_passthrough_outside_batch () =
  let _, data, j = setup () in
  Mneme.Journal.write j ~off:0 (Bytes.of_string "XX");
  Alcotest.(check string) "direct write" "XX23456789" (read_data data)

let test_read_your_writes () =
  let _, data, j = setup () in
  Mneme.Journal.begin_batch j;
  Mneme.Journal.write j ~off:2 (Bytes.of_string "AB");
  Alcotest.(check string) "pending visible" "01AB456789"
    (Bytes.to_string (Mneme.Journal.read j ~off:0 ~len:10));
  Alcotest.(check string) "data file untouched" "0123456789" (read_data data);
  (* Later writes shadow earlier ones. *)
  Mneme.Journal.write j ~off:3 (Bytes.of_string "Z");
  Alcotest.(check string) "overlay order" "01AZ456789"
    (Bytes.to_string (Mneme.Journal.read j ~off:0 ~len:10));
  Alcotest.(check int) "pending count" 2 (Mneme.Journal.pending_writes j)

let test_read_extends_past_data_end () =
  let _, _, j = setup () in
  Mneme.Journal.begin_batch j;
  Mneme.Journal.write j ~off:12 (Bytes.of_string "TAIL");
  Alcotest.(check int) "visible size" 16 (Mneme.Journal.data_size j);
  (* The hole between old EOF and the write reads as zeros. *)
  let b = Mneme.Journal.read j ~off:9 ~len:7 in
  Alcotest.(check string) "hole + tail" "9\000\000TAIL" (Bytes.to_string b)

let test_commit_applies () =
  let _, data, j = setup () in
  Mneme.Journal.begin_batch j;
  Mneme.Journal.write j ~off:0 (Bytes.of_string "AA");
  Mneme.Journal.write j ~off:8 (Bytes.of_string "BB");
  Mneme.Journal.commit j;
  Alcotest.(check string) "applied" "AA234567BB" (read_data data);
  Alcotest.(check bool) "batch closed" false (Mneme.Journal.in_batch j);
  Alcotest.(check bool) "log bytes recorded" true (Mneme.Journal.log_bytes_written j > 0)

(* Only bytes below the boundary (the data file's size when the batch
   opened, rounded up to a block) overwrite committed state and go
   through the log; an extent at or past it reaches the data file
   directly, before the commit point. *)
let test_appends_are_not_logged () =
  let _, data, j = setup () in
  let extent = Bytes.init 20_000 (fun i -> Char.chr (97 + (i mod 26))) in
  Mneme.Journal.begin_batch j;
  Mneme.Journal.write j ~off:0 (Bytes.of_string "AB");
  Mneme.Journal.write j ~off:bs extent;
  Mneme.Journal.commit j;
  (* One record (u64 offset, u32 length, 2 bytes) and the commit marker
     (u64 terminator, u32 CRC32). *)
  Alcotest.(check int) "only the overwrite is logged" (12 + 2 + 12)
    (Mneme.Journal.log_bytes_written j);
  Alcotest.(check string) "both writes applied"
    ("AB23456789" ^ String.make (bs - 10) '\000' ^ Bytes.to_string extent)
    (read_data data);
  (* A batch wholly past the new boundary writes no log record at all. *)
  let size = Vfs.size data in
  let next = (size + bs - 1) / bs * bs in
  Mneme.Journal.begin_batch j;
  Mneme.Journal.write j ~off:next (Bytes.of_string "MORE");
  Mneme.Journal.commit j;
  Alcotest.(check int) "append-only batch logs nothing" 26 (Mneme.Journal.log_bytes_written j);
  Alcotest.(check string) "append applied" "MORE"
    (Bytes.to_string (Vfs.read data ~off:next ~len:4));
  Alcotest.(check int) "hole before the append" (next + 4) (Vfs.size data)

let test_abort_discards () =
  let _, data, j = setup () in
  Mneme.Journal.begin_batch j;
  Mneme.Journal.write j ~off:0 (Bytes.of_string "ZZ");
  Mneme.Journal.abort j;
  Alcotest.(check string) "untouched" "0123456789" (read_data data);
  Alcotest.(check bool) "closed" false (Mneme.Journal.in_batch j)

let test_batch_discipline () =
  let _, _, j = setup () in
  Alcotest.(check bool) "commit without batch" true
    (match Mneme.Journal.commit j with () -> false | exception Invalid_argument _ -> true);
  Mneme.Journal.begin_batch j;
  Alcotest.(check bool) "double begin" true
    (match Mneme.Journal.begin_batch j with () -> false | exception Invalid_argument _ -> true)

let test_recover_clean () =
  let _, _, j = setup () in
  Alcotest.(check bool) "clean" true (Mneme.Journal.recover j = Mneme.Journal.Clean)

(* Build a committed log image, then replay recovery from every
   possible truncation point: a cut before the commit marker discards;
   the full image replays. *)
let test_recovery_at_every_truncation () =
  let vfs = Vfs.create () in
  let data = Vfs.open_file vfs "data" in
  ignore (Vfs.append data (Bytes.of_string "0123456789"));
  let j = Mneme.Journal.create vfs ~log_file:"log" ~data_file:"data" in
  (* Produce the log image by performing a commit whose apply phase we
     then undo: snapshot the log right after the write-ahead step by
     re-creating it manually. *)
  Mneme.Journal.begin_batch j;
  Mneme.Journal.write j ~off:0 (Bytes.of_string "AB");
  Mneme.Journal.write j ~off:5 (Bytes.of_string "CDE");
  Mneme.Journal.commit j;
  let committed = read_data data in
  (* Reconstruct the full log image (commit truncates it, so rebuild the
     same bytes by hand with the documented format). *)
  let records = Buffer.create 64 in
  List.iter
    (fun (off, s) ->
      Util.Bin.buf_u64 records off;
      Util.Bin.buf_u32 records (String.length s);
      Buffer.add_string records s)
    [ (0, "AB"); (5, "CDE") ];
  let buf = Buffer.create 64 in
  Buffer.add_buffer buf records;
  Util.Bin.buf_u64 buf 0xffffffffffffff;
  Util.Bin.buf_u32 buf (Util.Crc32.digest_bytes (Buffer.to_bytes records));
  let image = Buffer.to_bytes buf in
  for cut = 0 to Bytes.length image do
    (* Fresh world, crashed mid-write with [cut] log bytes surviving. *)
    let vfs = Vfs.create () in
    let data = Vfs.open_file vfs "data" in
    ignore (Vfs.append data (Bytes.of_string "0123456789"));
    let log = Vfs.open_file vfs "log" in
    ignore (Vfs.append log (Bytes.sub image 0 cut));
    Vfs.truncate log cut;
    let j = Mneme.Journal.attach vfs ~log_file:"log" ~data_file:"data" in
    (match Mneme.Journal.recover j with
    | Mneme.Journal.Clean ->
      Alcotest.(check int) "clean only at 0" 0 cut;
      Alcotest.(check string) "original" "0123456789" (read_data data)
    | Mneme.Journal.Discarded _ ->
      Alcotest.(check bool) (Printf.sprintf "cut %d incomplete" cut) true
        (cut < Bytes.length image);
      Alcotest.(check string) "original preserved" "0123456789" (read_data data)
    | Mneme.Journal.Replayed n ->
      Alcotest.(check int) (Printf.sprintf "cut %d full replay" cut) (Bytes.length image) cut;
      Alcotest.(check int) "two writes" 2 n;
      Alcotest.(check string) "committed state" committed (read_data data));
    (* Recovery is idempotent: the log is now empty. *)
    Alcotest.(check bool) "second recover clean" true
      (Mneme.Journal.recover j = Mneme.Journal.Clean)
  done

(* Any single bit flip in a committed log image must fail the CRC:
   recovery discards the batch rather than replaying damaged writes. *)
let test_recovery_rejects_corrupted_log () =
  let records = Buffer.create 64 in
  List.iter
    (fun (off, s) ->
      Util.Bin.buf_u64 records off;
      Util.Bin.buf_u32 records (String.length s);
      Buffer.add_string records s)
    [ (0, "AB"); (5, "CDE") ];
  let buf = Buffer.create 64 in
  Buffer.add_buffer buf records;
  Util.Bin.buf_u64 buf 0xffffffffffffff;
  Util.Bin.buf_u32 buf (Util.Crc32.digest_bytes (Buffer.to_bytes records));
  let image = Buffer.to_bytes buf in
  for i = 0 to Bytes.length image - 1 do
    for bit = 0 to 7 do
      let flipped = Bytes.copy image in
      Bytes.set flipped i (Char.chr (Char.code (Bytes.get image i) lxor (1 lsl bit)));
      let vfs = Vfs.create () in
      let data = Vfs.open_file vfs "data" in
      ignore (Vfs.append data (Bytes.of_string "0123456789"));
      let log = Vfs.open_file vfs "log" in
      ignore (Vfs.append log flipped);
      let j = Mneme.Journal.attach vfs ~log_file:"log" ~data_file:"data" in
      (match Mneme.Journal.recover j with
      | Mneme.Journal.Replayed _ ->
        Alcotest.failf "flip of byte %d bit %d replayed a corrupted batch" i bit
      | Mneme.Journal.Discarded _ | Mneme.Journal.Clean -> ());
      Alcotest.(check string)
        (Printf.sprintf "byte %d bit %d leaves data intact" i bit)
        "0123456789" (read_data data)
    done
  done

let test_store_transact_commit () =
  let vfs = Vfs.create () in
  let store = Mneme.Store.create vfs "t.mneme" in
  let pool = Mneme.Store.add_pool store Mneme.Policy.medium in
  Mneme.Store.attach_buffer pool (Mneme.Buffer_pool.create ~name:"m" ~capacity:100_000 ());
  Mneme.Store.enable_journal store ~log_file:"t.jnl";
  let oid =
    Mneme.Store.transact store (fun () ->
        let oid = Mneme.Store.allocate pool (Bytes.of_string "durable") in
        Mneme.Store.finalize store;
        (* Read-your-writes inside the batch. *)
        Alcotest.(check bytes) "visible inside" (Bytes.of_string "durable")
          (Mneme.Store.get store oid);
        oid)
  in
  (* After commit the bytes are on the data file: a completely fresh
     open (no journal) sees them. *)
  let store2 = Mneme.Store.open_existing vfs "t.mneme" in
  Mneme.Store.attach_buffer (Mneme.Store.pool store2 "medium")
    (Mneme.Buffer_pool.create ~name:"m" ~capacity:100_000 ());
  Alcotest.(check bytes) "after commit" (Bytes.of_string "durable") (Mneme.Store.get store2 oid)

let test_store_transact_abort_leaves_disk_clean () =
  let vfs = Vfs.create () in
  let store = Mneme.Store.create vfs "a.mneme" in
  let pool = Mneme.Store.add_pool store Mneme.Policy.medium in
  Mneme.Store.attach_buffer pool (Mneme.Buffer_pool.create ~name:"m" ~capacity:100_000 ());
  (* Establish a committed baseline. *)
  Mneme.Store.enable_journal store ~log_file:"a.jnl";
  let base =
    Mneme.Store.transact store (fun () ->
        let oid = Mneme.Store.allocate pool (Bytes.of_string "baseline") in
        Mneme.Store.finalize store;
        oid)
  in
  let size_before = Vfs.size (Vfs.open_file vfs "a.mneme") in
  (* A failing batch must leave the data file byte-identical. *)
  (match
     Mneme.Store.transact store (fun () ->
         ignore (Mneme.Store.allocate pool (Bytes.make 5000 'x'));
         Mneme.Store.finalize store;
         failwith "simulated failure")
   with
  | _ -> Alcotest.fail "should have raised"
  | exception Failure _ -> ());
  Alcotest.(check int) "file size unchanged" size_before (Vfs.size (Vfs.open_file vfs "a.mneme"));
  (* The crashed process is gone; a fresh open sees the baseline. *)
  let store2 = Mneme.Store.open_existing vfs "a.mneme" in
  Mneme.Store.attach_buffer (Mneme.Store.pool store2 "medium")
    (Mneme.Buffer_pool.create ~name:"m" ~capacity:100_000 ());
  Alcotest.(check bytes) "baseline intact" (Bytes.of_string "baseline")
    (Mneme.Store.get store2 base)

let test_store_recover_journal () =
  let vfs = Vfs.create () in
  let store = Mneme.Store.create vfs "r.mneme" in
  let pool = Mneme.Store.add_pool store Mneme.Policy.medium in
  Mneme.Store.attach_buffer pool (Mneme.Buffer_pool.create ~name:"m" ~capacity:100_000 ());
  Mneme.Store.enable_journal store ~log_file:"r.jnl";
  ignore
    (Mneme.Store.transact store (fun () ->
         let oid = Mneme.Store.allocate pool (Bytes.of_string "x") in
         Mneme.Store.finalize store;
         oid));
  Alcotest.(check bool) "clean after commit" true
    (Mneme.Store.recover_journal vfs ~file:"r.mneme" ~log_file:"r.jnl" = Mneme.Journal.Clean)

(* A journaled store's second publication under a fault plan: the
   first commits a one-object baseline, the second allocates well past
   the block boundary and re-finalizes. *)
let publishing_run fault =
  let vfs = Vfs.create () in
  let store = Mneme.Store.create vfs "p.mneme" in
  let pool = Mneme.Store.add_pool store Mneme.Policy.medium in
  Mneme.Store.attach_buffer pool (Mneme.Buffer_pool.create ~name:"m" ~capacity:100_000 ());
  Mneme.Store.enable_journal store ~log_file:"p.jnl";
  Mneme.Store.transact store (fun () ->
      ignore (Mneme.Store.allocate pool (Bytes.of_string "baseline"));
      Mneme.Store.finalize store);
  Vfs.set_fault vfs fault;
  (try
     Mneme.Store.transact store (fun () ->
         for i = 0 to 19 do
           ignore (Mneme.Store.allocate pool (Bytes.make 3000 (Char.chr (97 + i))))
         done;
         Mneme.Store.finalize store)
   with Vfs.Crash -> ());
  vfs

(* The data tail recorded in a store file's header (a u64 at byte 23). *)
let header_tail vfs file =
  Util.Bin.get_u64 (Vfs.read (Vfs.open_file vfs file) ~off:0 ~len:64) 23

(* Crashing before the commit point strands the pre-flushed extents past
   the committed tail; recovery must cut them off, leaving the file
   exactly as long as its header says, fsck-clean, old or new. *)
let test_store_recovery_trims_tail () =
  let total = Vfs.fault_io_count (publishing_run (Vfs.Fault.none ())) in
  let stranded = ref 0 in
  for k = 1 to total do
    let img = Vfs.crash_image (publishing_run (Vfs.Fault.crash_at_io k)) in
    if Vfs.size (Vfs.open_file img "p.mneme") > header_tail img "p.mneme" then incr stranded;
    ignore (Mneme.Store.recover_journal img ~file:"p.mneme" ~log_file:"p.jnl");
    Alcotest.(check int)
      (Printf.sprintf "crash at io %d: file ends at the header's tail" k)
      (header_tail img "p.mneme")
      (Vfs.size (Vfs.open_file img "p.mneme"));
    let store = Mneme.Store.open_existing img "p.mneme" in
    Mneme.Store.attach_buffer (Mneme.Store.pool store "medium")
      (Mneme.Buffer_pool.create ~name:"m" ~capacity:100_000 ());
    let report = Mneme.Check.run store in
    Alcotest.(check bool)
      (Format.asprintf "crash at io %d: fsck clean: %a" k Mneme.Check.pp_report report)
      true (Mneme.Check.ok report);
    Alcotest.(check bool)
      (Printf.sprintf "crash at io %d: wholly old or wholly new" k)
      true
      (List.mem (Mneme.Store.object_count store) [ 1; 21 ])
  done;
  Alcotest.(check bool) "some crash points strand bytes past the tail" true (!stranded > 0)

let test_commit_stream () =
  let _, data, j = setup () in
  let received = ref [] in
  Mneme.Journal.on_commit j (fun ~lsn image -> received := (lsn, Bytes.copy image) :: !received);
  Alcotest.(check int) "lsn starts at zero" 0 (Mneme.Journal.lsn j);
  Mneme.Journal.begin_batch j;
  Mneme.Journal.write j ~off:0 (Bytes.of_string "AA");
  Mneme.Journal.commit j;
  Mneme.Journal.begin_batch j;
  Mneme.Journal.write j ~off:4 (Bytes.of_string "BB");
  Mneme.Journal.commit j;
  (* A batch straddling the boundary, then one wholly past it: their
     extents skip the log, yet every write must still ship. *)
  Mneme.Journal.begin_batch j;
  Mneme.Journal.write j ~off:6 (Bytes.make (bs + 800) 'C');
  Mneme.Journal.commit j;
  Mneme.Journal.begin_batch j;
  Mneme.Journal.write j ~off:(2 * bs) (Bytes.of_string "END");
  Mneme.Journal.commit j;
  Alcotest.(check int) "four commits numbered" 4 (Mneme.Journal.lsn j);
  Alcotest.(check (list int)) "stream in order" [ 1; 2; 3; 4 ]
    (List.rev_map fst !received);
  (* Each shipped image is a sealed, replayable log: landing it in a
     fresh journal's log file and recovering replays the batch. *)
  let vfs2 = Vfs.create () in
  let data2 = Vfs.open_file vfs2 "data" in
  ignore (Vfs.append data2 (Bytes.of_string "0123456789"));
  let j2 = Mneme.Journal.attach vfs2 ~log_file:"log" ~data_file:"data" in
  List.iter
    (fun (_, image) ->
      let log2 = Vfs.open_file vfs2 "log" in
      Vfs.truncate log2 0;
      ignore (Vfs.append log2 image);
      Vfs.fsync log2;
      match Mneme.Journal.recover j2 with
      | Mneme.Journal.Replayed _ -> ()
      | r ->
        Alcotest.failf "shipped image did not replay: %s"
          (match r with
          | Mneme.Journal.Discarded n -> Printf.sprintf "discarded %d" n
          | Mneme.Journal.Clean -> "clean"
          | Mneme.Journal.Replayed _ -> assert false))
    (List.rev !received);
  Alcotest.(check string) "replica data matches primary" (read_data data)
    (Bytes.to_string (Vfs.read data2 ~off:0 ~len:(Vfs.size data2)));
  (* Names are exposed for the replica layer. *)
  Alcotest.(check string) "log name" "log" (Mneme.Journal.log_file j);
  Alcotest.(check string) "data name" "data" (Mneme.Journal.data_file j)

(* --- replay idempotency -------------------------------------------- *)

(* A deterministic committing run under a fault plan; the same plan
   always yields the same physical I/O sequence. *)
let committing_run fault =
  let vfs = Vfs.create () in
  let data = Vfs.open_file vfs "data" in
  ignore (Vfs.append data (Bytes.make 32 '.'));
  Vfs.fsync data;
  (* The 32-byte baseline is durable; crash points start with the batch.
     Besides two overwrites, the batch appends an extent from the old
     end across the first block boundary: the part below it is logged,
     the part past it is flushed ahead of the commit point. *)
  Vfs.set_fault vfs fault;
  (try
     let j = Mneme.Journal.create vfs ~log_file:"log" ~data_file:"data" in
     Mneme.Journal.begin_batch j;
     Mneme.Journal.write j ~off:0 (Bytes.of_string "HELLO");
     Mneme.Journal.write j ~off:27 (Bytes.of_string "WORLD");
     Mneme.Journal.write j ~off:32 (Bytes.init 10_000 (fun i -> Char.chr (65 + (i mod 26))));
     Mneme.Journal.commit j
   with Vfs.Crash -> ());
  vfs

let copy_image img =
  let copy = Vfs.create () in
  List.iter (fun f -> Vfs.copy_file img f ~into:copy) (Vfs.file_names img);
  copy

let whole_file vfs name =
  if not (Vfs.file_exists vfs name) then ""
  else begin
    let f = Vfs.open_file vfs name in
    Bytes.to_string (Vfs.read f ~off:0 ~len:(Vfs.size f))
  end

let recover_image img = Mneme.Journal.recover (Mneme.Journal.attach img ~log_file:"log" ~data_file:"data")

(* The data file after the fault-free run: the committed state. *)
let committed_data () = whole_file (committing_run (Vfs.Fault.none ())) "data"

(* The bytes below the batch's boundary (the first block), zero-padded
   past the end of the file. *)
let below_boundary vfs =
  let s = whole_file vfs "data" in
  let n = min bs (String.length s) in
  String.sub s 0 n ^ String.make (bs - n) '\000'

(* Crash images whose log holds a sealed commit the recovery replays. *)
let replayable_images () =
  let total = Vfs.fault_io_count (committing_run (Vfs.Fault.none ())) in
  List.filter_map
    (fun k ->
      let img = Vfs.crash_image (committing_run (Vfs.Fault.crash_at_io k)) in
      match recover_image (copy_image img) with
      | Mneme.Journal.Replayed _ -> Some (k, img)
      | _ -> None)
    (List.init total (fun i -> i + 1))

let test_replaying_twice_is_idempotent () =
  let images = replayable_images () in
  let committed = committed_data () in
  Alcotest.(check bool) "some crash points seal a commit" true (images <> []);
  List.iter
    (fun (k, img) ->
      (match recover_image img with
      | Mneme.Journal.Replayed _ -> ()
      | _ -> Alcotest.failf "crash at io %d: first recovery did not replay" k);
      let once = whole_file img "data" in
      (* The logged writes replay; the extent past the boundary was
         durable before the log was sealed. *)
      Alcotest.(check string)
        (Printf.sprintf "crash at io %d: committed writes landed" k)
        committed once;
      (* A second recovery finds a clean (truncated) log and must not
         move a byte. *)
      (match recover_image img with
      | Mneme.Journal.Clean -> ()
      | _ -> Alcotest.failf "crash at io %d: second recovery was not clean" k);
      Alcotest.(check string)
        (Printf.sprintf "crash at io %d: replaying twice is byte-identical" k)
        once (whole_file img "data"))
    images

(* Crash the batch at every physical I/O: after recovery the bytes
   below the boundary are wholly the baseline or wholly the batch's,
   and a recovered batch carries its pre-flushed extent with it. *)
let test_every_crash_point_old_or_new () =
  let total = Vfs.fault_io_count (committing_run (Vfs.Fault.none ())) in
  let committed = committed_data () in
  let old = String.make 32 '.' ^ String.make (bs - 32) '\000' in
  let fresh = String.sub committed 0 bs in
  let outcomes =
    List.init total (fun i ->
        let k = i + 1 in
        let img = Vfs.crash_image (committing_run (Vfs.Fault.crash_at_io k)) in
        ignore (recover_image img);
        let below = below_boundary img in
        if below = fresh then begin
          Alcotest.(check string)
            (Printf.sprintf "crash at io %d: new state is whole" k)
            committed (whole_file img "data");
          `New
        end
        else if below = old then `Old
        else Alcotest.failf "crash at io %d: below-boundary bytes are a torn mix" k)
  in
  Alcotest.(check bool) "some crash points recover the old state" true (List.mem `Old outcomes);
  Alcotest.(check bool) "some crash points recover the new state" true (List.mem `New outcomes)

let test_crash_during_recovery_is_idempotent () =
  let images = replayable_images () in
  List.iter
    (fun (k, img) ->
      (* The expected end state: the same image recovered undisturbed. *)
      let undisturbed = copy_image img in
      ignore (recover_image undisturbed);
      let expect = whole_file undisturbed "data" in
      (* Crash the recovery itself at every physical I/O, then let a
         second recovery finish the job: same bytes, every time. *)
      let j = ref 1 in
      let continue = ref true in
      while !continue do
        let attempt = copy_image img in
        Vfs.set_fault attempt (Vfs.Fault.crash_at_io !j);
        (match recover_image attempt with
        | _ -> continue := false (* recovery finished before io [j] *)
        | exception Vfs.Crash ->
          let resumed = Vfs.crash_image attempt in
          (match recover_image resumed with
          | Mneme.Journal.Replayed _ | Mneme.Journal.Clean -> ()
          | Mneme.Journal.Discarded _ ->
            Alcotest.failf "crash at io %d, recovery crash at io %d: sealed log discarded" k !j);
          Alcotest.(check string)
            (Printf.sprintf "crash at io %d, recovery crash at io %d: byte-identical" k !j)
            expect (whole_file resumed "data"));
        incr j
      done)
    images

let suite =
  [
    Alcotest.test_case "passthrough outside batch" `Quick test_passthrough_outside_batch;
    Alcotest.test_case "replaying twice is idempotent" `Quick test_replaying_twice_is_idempotent;
    Alcotest.test_case "crash during recovery is idempotent" `Quick
      test_crash_during_recovery_is_idempotent;
    Alcotest.test_case "every crash point old or new" `Quick test_every_crash_point_old_or_new;
    Alcotest.test_case "commit stream" `Quick test_commit_stream;
    Alcotest.test_case "read your writes" `Quick test_read_your_writes;
    Alcotest.test_case "read past data end" `Quick test_read_extends_past_data_end;
    Alcotest.test_case "commit applies" `Quick test_commit_applies;
    Alcotest.test_case "appends are not logged" `Quick test_appends_are_not_logged;
    Alcotest.test_case "abort discards" `Quick test_abort_discards;
    Alcotest.test_case "batch discipline" `Quick test_batch_discipline;
    Alcotest.test_case "recover clean" `Quick test_recover_clean;
    Alcotest.test_case "recovery at every truncation" `Quick test_recovery_at_every_truncation;
    Alcotest.test_case "recovery rejects corrupted log" `Quick test_recovery_rejects_corrupted_log;
    Alcotest.test_case "store transact commit" `Quick test_store_transact_commit;
    Alcotest.test_case "store transact abort" `Quick test_store_transact_abort_leaves_disk_clean;
    Alcotest.test_case "store recover_journal" `Quick test_store_recover_journal;
    Alcotest.test_case "store recovery trims the tail" `Quick test_store_recovery_trims_tail;
  ]
