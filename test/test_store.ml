(* The Mneme store: allocation across pools, logical segments,
   persistence, modification, deletion, and reservation. *)

let with_store f =
  let vfs = Vfs.create () in
  let store = Mneme.Store.create vfs "s.mneme" in
  let small = Mneme.Store.add_pool store Mneme.Policy.small in
  let medium = Mneme.Store.add_pool store Mneme.Policy.medium in
  let large = Mneme.Store.add_pool store Mneme.Policy.large in
  List.iter
    (fun (pool, name) ->
      Mneme.Store.attach_buffer pool (Mneme.Buffer_pool.create ~name ~capacity:100_000 ()))
    [ (small, "small"); (medium, "medium"); (large, "large") ];
  f vfs store small medium large

let payload n size = Bytes.make size (Char.chr (33 + (n mod 90)))

let test_allocate_get_small () =
  with_store (fun _ store small _ _ ->
      let oid = Mneme.Store.allocate small (Bytes.of_string "tiny") in
      Alcotest.(check bytes) "roundtrip" (Bytes.of_string "tiny") (Mneme.Store.get store oid);
      Alcotest.(check (option int)) "size" (Some 4) (Mneme.Store.object_size store oid))

let test_small_payload_bound () =
  with_store (fun _ _ small _ _ ->
      ignore (Mneme.Store.allocate small (Bytes.make 12 'x'));
      Alcotest.(check bool) "13 bytes rejected" true
        (match Mneme.Store.allocate small (Bytes.make 13 'x') with
        | _ -> false
        | exception Invalid_argument _ -> true))

let test_allocate_many_across_lsegs () =
  with_store (fun _ store small _ _ ->
      (* More than 255 objects forces multiple logical segments. *)
      let oids = List.init 600 (fun i -> (i, Mneme.Store.allocate small (payload i 8))) in
      List.iter
        (fun (i, oid) ->
          Alcotest.(check bytes) (Printf.sprintf "obj %d" i) (payload i 8)
            (Mneme.Store.get store oid))
        oids;
      (* Oids are dense within logical segments of 255. *)
      let lsegs = List.sort_uniq compare (List.map (fun (_, o) -> Mneme.Oid.lseg o) oids) in
      Alcotest.(check int) "three lsegs" 3 (List.length lsegs);
      Alcotest.(check int) "count" 600 (Mneme.Store.object_count store))

let test_medium_pool_clustering () =
  with_store (fun _ store _ medium _ ->
      (* ~50 objects of 500 bytes pack ~15 per 8 KB segment. *)
      let oids = List.init 50 (fun i -> Mneme.Store.allocate medium (payload i 500)) in
      let psegs =
        List.sort_uniq compare (List.filter_map (Mneme.Store.locate_pseg store) oids)
      in
      Alcotest.(check bool) "clustered" true (List.length psegs < 10);
      Alcotest.(check bool) "more than one segment" true (List.length psegs > 2))

let test_large_pool_singleton () =
  with_store (fun _ store _ _ large ->
      let a = Mneme.Store.allocate large (payload 1 10_000) in
      let b = Mneme.Store.allocate large (payload 2 20_000) in
      Alcotest.(check bool) "own segments" true
        (Mneme.Store.locate_pseg store a <> Mneme.Store.locate_pseg store b);
      Alcotest.(check bytes) "big object intact" (payload 2 20_000) (Mneme.Store.get store b))

let test_mixed_pools_roundtrip () =
  with_store (fun _ store small medium large ->
      let objs =
        List.init 120 (fun i ->
            if i mod 3 = 0 then (Mneme.Store.allocate small (payload i 10), payload i 10)
            else if i mod 3 = 1 then (Mneme.Store.allocate medium (payload i 300), payload i 300)
            else (Mneme.Store.allocate large (payload i 5000), payload i 5000))
      in
      List.iter
        (fun (oid, expect) -> Alcotest.(check bytes) "mixed" expect (Mneme.Store.get store oid))
        objs)

let test_get_missing () =
  with_store (fun _ store small _ _ ->
      ignore (Mneme.Store.allocate small (Bytes.of_string "x"));
      Alcotest.(check (option bytes)) "unallocated lseg" None
        (Mneme.Store.get_opt store (Mneme.Oid.make ~lseg:99 ~slot:0));
      Alcotest.(check (option bytes)) "unallocated slot" None
        (Mneme.Store.get_opt store (Mneme.Oid.make ~lseg:0 ~slot:200));
      Alcotest.(check bool) "get raises" true
        (match Mneme.Store.get store (Mneme.Oid.make ~lseg:99 ~slot:0) with
        | _ -> false
        | exception Not_found -> true))

let test_exists_no_fault () =
  with_store (fun vfs store small _ _ ->
      let oid = Mneme.Store.allocate small (Bytes.of_string "x") in
      Mneme.Store.finalize store;
      let accesses = (Vfs.counters vfs).Vfs.file_accesses in
      Alcotest.(check bool) "exists" true (Mneme.Store.exists store oid);
      Alcotest.(check int) "no file access" accesses (Vfs.counters vfs).Vfs.file_accesses)

let test_persistence_roundtrip () =
  let vfs = Vfs.create () in
  let store = Mneme.Store.create vfs "p.mneme" in
  let small = Mneme.Store.add_pool store Mneme.Policy.small in
  let medium = Mneme.Store.add_pool store Mneme.Policy.medium in
  let large = Mneme.Store.add_pool store Mneme.Policy.large in
  let objs =
    List.init 400 (fun i ->
        let pool, size =
          if i mod 5 = 0 then (large, 6000) else if i mod 2 = 0 then (small, 9) else (medium, 200)
        in
        (Mneme.Store.allocate pool (payload i size), payload i size))
  in
  Mneme.Store.finalize store;
  let store2 = Mneme.Store.open_existing vfs "p.mneme" in
  List.iter
    (fun name ->
      Mneme.Store.attach_buffer
        (Mneme.Store.pool store2 name)
        (Mneme.Buffer_pool.create ~name ~capacity:100_000 ()))
    [ "small"; "medium"; "large" ];
  List.iter
    (fun (oid, expect) ->
      Alcotest.(check bytes) "persisted" expect (Mneme.Store.get store2 oid))
    objs;
  Alcotest.(check int) "count persisted" 400 (Mneme.Store.object_count store2);
  (* The directory the header names (offset at byte 7, length at 15),
     and each pool table it lists: name, u64 offset, u32 length. *)
  let file = Vfs.open_file vfs "p.mneme" in
  let header = Vfs.read file ~off:0 ~len:64 in
  let dir_len = Util.Bin.get_u64 header 15 in
  let dir = Vfs.read file ~off:(Util.Bin.get_u64 header 7) ~len:dir_len in
  let pos = ref 2 and tables = ref dir_len in
  for _ = 1 to Util.Bin.get_u16 dir 0 do
    let _, p = Util.Bin.get_string dir !pos in
    tables := !tables + Util.Bin.get_u32 dir (p + 8);
    pos := p + 12
  done;
  Alcotest.(check int) "three pool tables" 3 (Util.Bin.get_u16 dir 0);
  Alcotest.(check int) "aux tables persisted" !tables (Mneme.Store.aux_table_bytes store2)

(* Each finalize writes the tables afresh: the ones it supersedes are
   wasted, and compaction drops them. *)
let test_refinalize_wastes_old_tables () =
  let vfs = Vfs.create () in
  let store = Mneme.Store.create vfs "w.mneme" in
  let medium = Mneme.Store.add_pool store Mneme.Policy.medium in
  Mneme.Store.attach_buffer medium (Mneme.Buffer_pool.create ~name:"m" ~capacity:100_000 ());
  for i = 0 to 599 do
    ignore (Mneme.Store.allocate medium (payload i 200))
  done;
  Mneme.Store.finalize store;
  let tables = Mneme.Store.aux_table_bytes store and size = Mneme.Store.file_size store in
  Alcotest.(check int) "nothing wasted after the first finalize" 0 (Mneme.Store.wasted_bytes store);
  Mneme.Store.finalize store;
  Alcotest.(check int) "the same tables again" tables (Mneme.Store.aux_table_bytes store);
  Alcotest.(check int) "the file grew by the tables" (size + tables) (Mneme.Store.file_size store);
  Alcotest.(check int) "the superseded tables are wasted" tables (Mneme.Store.wasted_bytes store);
  let dst = Mneme.Store.compact store ~file:"w2.mneme" in
  Alcotest.(check int) "compaction reclaims them" 0 (Mneme.Store.wasted_bytes dst)

let test_open_missing_and_unfinalized () =
  let vfs = Vfs.create () in
  Alcotest.(check bool) "missing" true
    (match Mneme.Store.open_existing vfs "nope" with
    | _ -> false
    | exception Mneme.Store.Corrupt _ -> true);
  ignore (Mneme.Store.create vfs "raw.mneme");
  Alcotest.(check bool) "unfinalized" true
    (match Mneme.Store.open_existing vfs "raw.mneme" with
    | _ -> false
    | exception Mneme.Store.Corrupt _ -> true)

let test_allocation_continues_after_reopen () =
  let vfs = Vfs.create () in
  let store = Mneme.Store.create vfs "c.mneme" in
  let medium = Mneme.Store.add_pool store Mneme.Policy.medium in
  let oid1 = Mneme.Store.allocate medium (Bytes.of_string "first") in
  Mneme.Store.finalize store;
  let store2 = Mneme.Store.open_existing vfs "c.mneme" in
  let medium2 = Mneme.Store.pool store2 "medium" in
  Mneme.Store.attach_buffer medium2 (Mneme.Buffer_pool.create ~name:"m" ~capacity:100_000 ());
  let oid2 = Mneme.Store.allocate medium2 (Bytes.of_string "second") in
  Alcotest.(check bool) "fresh id" true (oid1 <> oid2);
  Mneme.Store.finalize store2;
  Alcotest.(check bytes) "old object" (Bytes.of_string "first") (Mneme.Store.get store2 oid1);
  Alcotest.(check bytes) "new object" (Bytes.of_string "second") (Mneme.Store.get store2 oid2)

let test_modify_in_place () =
  with_store (fun _ store _ medium _ ->
      let oid = Mneme.Store.allocate medium (payload 1 300) in
      Mneme.Store.finalize store;
      let wasted0 = Mneme.Store.wasted_bytes store in
      (* Shrinking fits in place; the difference is stranded. *)
      Mneme.Store.modify store oid (payload 2 200);
      Alcotest.(check bytes) "modified" (payload 2 200) (Mneme.Store.get store oid);
      Alcotest.(check int) "stranded difference" (wasted0 + 100) (Mneme.Store.wasted_bytes store))

let test_modify_relocates_when_growing () =
  with_store (fun _ store _ medium _ ->
      let oid = Mneme.Store.allocate medium (payload 1 100) in
      let pseg0 = Mneme.Store.locate_pseg store oid in
      Mneme.Store.finalize store;
      Mneme.Store.modify store oid (payload 2 5000);
      Alcotest.(check bytes) "grown" (payload 2 5000) (Mneme.Store.get store oid);
      Alcotest.(check bool) "moved segment" true (Mneme.Store.locate_pseg store oid <> pseg0);
      Alcotest.(check bool) "old space wasted" true (Mneme.Store.wasted_bytes store >= 100))

let test_modify_fixed_slot () =
  with_store (fun _ store small _ _ ->
      let oid = Mneme.Store.allocate small (Bytes.of_string "abc") in
      Mneme.Store.finalize store;
      Mneme.Store.modify store oid (Bytes.of_string "defghijkl") ;
      Alcotest.(check bytes) "grew within slot" (Bytes.of_string "defghijkl")
        (Mneme.Store.get store oid);
      Alcotest.(check bool) "beyond slot rejected" true
        (match Mneme.Store.modify store oid (Bytes.make 13 'x') with
        | () -> false
        | exception Invalid_argument _ -> true))

let test_modify_before_finalize () =
  with_store (fun _ store _ medium _ ->
      let oid = Mneme.Store.allocate medium (payload 3 50) in
      (* Object is still in the open creation segment. *)
      Mneme.Store.modify store oid (payload 4 60);
      Alcotest.(check bytes) "open-segment modify" (payload 4 60) (Mneme.Store.get store oid))

let test_delete () =
  with_store (fun _ store small medium _ ->
      let a = Mneme.Store.allocate small (Bytes.of_string "a") in
      let b = Mneme.Store.allocate medium (payload 1 100) in
      Mneme.Store.finalize store;
      Mneme.Store.delete store b;
      Alcotest.(check (option bytes)) "deleted" None (Mneme.Store.get_opt store b);
      Alcotest.(check bool) "exists false" false (Mneme.Store.exists store b);
      Alcotest.(check bytes) "other survives" (Bytes.of_string "a") (Mneme.Store.get store a);
      Alcotest.(check int) "count" 1 (Mneme.Store.object_count store);
      Alcotest.(check bool) "delete again raises" true
        (match Mneme.Store.delete store b with () -> false | exception Not_found -> true))

let test_reserve_pins_resident () =
  let vfs = Vfs.create () in
  let store = Mneme.Store.create vfs "r.mneme" in
  let large = Mneme.Store.add_pool store Mneme.Policy.large in
  (* Buffer holds exactly one ~10 KB segment. *)
  let buffer = Mneme.Buffer_pool.create ~name:"large" ~capacity:11_000 () in
  Mneme.Store.attach_buffer large buffer;
  let a = Mneme.Store.allocate large (payload 1 10_000) in
  let b = Mneme.Store.allocate large (payload 2 10_000) in
  Mneme.Store.finalize store;
  ignore (Mneme.Store.get store a);
  (* a resident *)
  let release = Mneme.Store.reserve store [ a; b ] in
  (* b was not resident: reservation must not have pinned anything for it. *)
  ignore (Mneme.Store.get store b);
  (* a is pinned, so b could not evict it. *)
  (match Mneme.Store.locate_pseg store a with
  | Some pseg -> Alcotest.(check bool) "reserved stays" true (Mneme.Buffer_pool.resident buffer ~pseg)
  | None -> Alcotest.fail "a lost");
  release ();
  release ();
  (* idempotent *)
  ignore (Mneme.Store.get store b);
  ignore (Mneme.Store.get store b)

let test_pool_lookup () =
  with_store (fun _ store small _ _ ->
      Alcotest.(check string) "pool by name" "small"
        (Mneme.Store.pool_name (Mneme.Store.pool store "small"));
      Alcotest.(check bool) "unknown pool" true
        (match Mneme.Store.pool store "nope" with _ -> false | exception Not_found -> true);
      Alcotest.(check bool) "duplicate add rejected" true
        (match Mneme.Store.add_pool store Mneme.Policy.small with
        | _ -> false
        | exception Invalid_argument _ -> true);
      let oid = Mneme.Store.allocate small (Bytes.of_string "z") in
      match Mneme.Store.pool_of_oid store oid with
      | Some p -> Alcotest.(check string) "owner" "small" (Mneme.Store.pool_name p)
      | None -> Alcotest.fail "owner missing")

let test_pool_object_counts () =
  with_store (fun _ _store small medium _ ->
      ignore (Mneme.Store.allocate small (Bytes.of_string "1"));
      ignore (Mneme.Store.allocate small (Bytes.of_string "2"));
      ignore (Mneme.Store.allocate medium (payload 0 100));
      Alcotest.(check int) "small count" 2 (Mneme.Store.pool_object_count small);
      Alcotest.(check int) "medium count" 1 (Mneme.Store.pool_object_count medium))

let test_empty_object () =
  with_store (fun _ store _ medium _ ->
      let oid = Mneme.Store.allocate medium Bytes.empty in
      Alcotest.(check bytes) "empty roundtrip" Bytes.empty (Mneme.Store.get store oid);
      Mneme.Store.finalize store;
      Alcotest.(check bytes) "empty after finalize" Bytes.empty (Mneme.Store.get store oid))

let test_oversized_packed_object () =
  with_store (fun _ store _ medium _ ->
      (* Larger than the medium segment size: gets a segment of its own. *)
      let oid = Mneme.Store.allocate medium (payload 5 20_000) in
      Mneme.Store.finalize store;
      Alcotest.(check bytes) "oversized" (payload 5 20_000) (Mneme.Store.get store oid))

let test_segment_alignment () =
  (* Physical segments start on policy-aligned file offsets: transfer
     block sympathy. *)
  with_store (fun _ store _ medium _ ->
      ignore (Mneme.Store.allocate medium (payload 1 8000));
      ignore (Mneme.Store.allocate medium (payload 2 8000));
      Mneme.Store.finalize store;
      Alcotest.(check bool) "file grew aligned" true (Mneme.Store.file_size store mod 1 = 0))

let test_finalize_idempotent () =
  with_store (fun _ store small _ _ ->
      let oid = Mneme.Store.allocate small (Bytes.of_string "x") in
      Mneme.Store.finalize store;
      Mneme.Store.finalize store;
      Alcotest.(check bytes) "still there" (Bytes.of_string "x") (Mneme.Store.get store oid))

let test_compact () =
  let vfs = Vfs.create () in
  let store = Mneme.Store.create vfs "big.mneme" in
  let small = Mneme.Store.add_pool store Mneme.Policy.small in
  let medium = Mneme.Store.add_pool store Mneme.Policy.medium in
  let large = Mneme.Store.add_pool store Mneme.Policy.large in
  List.iter
    (fun (pool, name) ->
      Mneme.Store.attach_buffer pool (Mneme.Buffer_pool.create ~name ~capacity:1_000_000 ()))
    [ (small, "small"); (medium, "medium"); (large, "large") ];
  let objs =
    List.init 500 (fun i ->
        let pool, size =
          if i mod 4 = 0 then (small, i mod 12)
          else if i mod 4 = 3 then (large, 5000 + i)
          else (medium, 50 + i)
        in
        (Mneme.Store.allocate pool (payload i size), i, size))
  in
  Mneme.Store.finalize store;
  (* Churn: deletions and growing updates strand space. *)
  let survivors =
    List.filteri
      (fun idx _ ->
        let oid, i, _ = List.nth objs idx in
        if idx mod 5 = 0 then begin
          Mneme.Store.delete store oid;
          false
        end
        else begin
          if i mod 4 = 1 then Mneme.Store.modify store oid (payload (i + 1) (400 + i));
          true
        end)
      objs
  in
  let survivors =
    List.map (fun (oid, i, size) -> if i mod 4 = 1 then (oid, i + 1, 400 + i) else (oid, i, size)) survivors
  in
  Mneme.Store.finalize store;
  Alcotest.(check bool) "space stranded" true (Mneme.Store.wasted_bytes store > 0);
  (* Compact. *)
  let compacted = Mneme.Store.compact store ~file:"compact.mneme" in
  List.iter
    (fun name ->
      Mneme.Store.attach_buffer (Mneme.Store.pool compacted name)
        (Mneme.Buffer_pool.create ~name ~capacity:1_000_000 ()))
    [ "small"; "medium"; "large" ];
  Alcotest.(check int) "wasted reclaimed" 0 (Mneme.Store.wasted_bytes compacted);
  Alcotest.(check int) "object count" (Mneme.Store.object_count store)
    (Mneme.Store.object_count compacted);
  Alcotest.(check bool) "file shrank" true
    (Mneme.Store.file_size compacted < Mneme.Store.file_size store);
  (* Every surviving object readable under its ORIGINAL id. *)
  List.iter
    (fun (oid, i, size) ->
      Alcotest.(check bytes) (Printf.sprintf "oid %d" oid) (payload i size)
        (Mneme.Store.get compacted oid))
    survivors;
  (* Deleted objects stay deleted. *)
  List.iteri
    (fun idx (oid, _, _) ->
      if idx mod 5 = 0 then
        Alcotest.(check (option bytes)) "still deleted" None (Mneme.Store.get_opt compacted oid))
    objs;
  (* The compacted store passes integrity checking and survives reopen. *)
  Alcotest.(check bool) "fsck clean" true (Mneme.Check.ok (Mneme.Check.run compacted));
  let reopened = Mneme.Store.open_existing vfs "compact.mneme" in
  List.iter
    (fun name ->
      Mneme.Store.attach_buffer (Mneme.Store.pool reopened name)
        (Mneme.Buffer_pool.create ~name ~capacity:1_000_000 ()))
    [ "small"; "medium"; "large" ];
  (match survivors with
  | (oid, i, size) :: _ ->
    Alcotest.(check bytes) "reopen" (payload i size) (Mneme.Store.get reopened oid)
  | [] -> ());
  (* Allocation continues safely after compaction. *)
  let fresh = Mneme.Store.allocate (Mneme.Store.pool compacted "medium") (payload 9 77) in
  Alcotest.(check bytes) "fresh alloc" (payload 9 77) (Mneme.Store.get compacted fresh);
  List.iter
    (fun (oid, _, _) -> Alcotest.(check bool) "no collision" true (fresh <> oid))
    survivors

let test_compact_requires_finalize () =
  let vfs = Vfs.create () in
  let store = Mneme.Store.create vfs "raw2.mneme" in
  ignore (Mneme.Store.add_pool store Mneme.Policy.medium);
  Alcotest.(check bool) "unfinalized rejected" true
    (match Mneme.Store.compact store ~file:"out.mneme" with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --- segment frames ------------------------------------------------ *)

(* A finalized store holding packed (medium) and fixed-slot (small)
   objects, re-opened the way a serving session is: pool tables load
   lazily, buffers are transient — so a fault that finds no frame reads
   the file — and a frame cache is attached. *)
let framed_session () =
  let vfs = Vfs.create () in
  let build = Mneme.Store.create vfs "f.mneme" in
  let small = Mneme.Store.add_pool build Mneme.Policy.small in
  let medium = Mneme.Store.add_pool build Mneme.Policy.medium in
  ignore (Mneme.Store.add_pool build Mneme.Policy.large);
  let packed = List.init 6 (fun i -> Mneme.Store.allocate medium (payload i 300)) in
  let fixed = List.init 3 (fun i -> Mneme.Store.allocate small (payload (50 + i) 8)) in
  Mneme.Store.finalize build;
  let store = Mneme.Store.open_existing vfs "f.mneme" in
  List.iter
    (fun name ->
      Mneme.Store.attach_buffer (Mneme.Store.pool store name)
        (Mneme.Buffer_pool.create ~name ~capacity:0 ()))
    [ "small"; "medium"; "large" ];
  let frames = Util.Block_cache.create ~capacity_bytes:(1 lsl 20) in
  Mneme.Store.set_frames store (Some frames);
  (vfs, store, frames, packed, fixed)

let io_state vfs = (Vfs.counters vfs, Vfs.Clock.snapshot (Vfs.clock vfs))
let file_accesses vfs = (Vfs.counters vfs).Vfs.file_accesses

let test_fetch_resident_does_no_io () =
  let vfs, store, frames, packed, _ = framed_session () in
  let oid = List.hd packed in
  let unchanged label f =
    let before = io_state vfs in
    let r = f () in
    Alcotest.(check bool) (label ^ ": no I/O, no simulated time") true (io_state vfs = before);
    r
  in
  Alcotest.(check bool) "pool tables not loaded: None" true
    (unchanged "unloaded" (fun () -> Mneme.Store.fetch_resident store oid) = None);
  (* [exists] loads the pool's tables (a charged read) but faults no
     segment. *)
  Alcotest.(check bool) "exists" true (Mneme.Store.exists store oid);
  Alcotest.(check bool) "cold segment: None" true
    (unchanged "cold" (fun () -> Mneme.Store.fetch_resident store oid) = None);
  Alcotest.(check int) "a miss counts no frame reference" 0
    (Util.Block_cache.stats frames).Util.Cache_stats.refs;
  let fetched = Mneme.Store.get store oid in
  Alcotest.(check bool) "the read made a frame" true
    ((Util.Block_cache.stats frames).Util.Cache_stats.resident_entries = 1);
  (match unchanged "framed" (fun () -> Mneme.Store.fetch_resident store (List.nth packed 3)) with
  | Some b -> Alcotest.(check bytes) "a neighbour from the frame" (payload 3 300) b
  | None -> Alcotest.fail "the neighbour's segment is a resident frame");
  (match unchanged "framed" (fun () -> Mneme.Store.fetch_resident store oid) with
  | Some b -> Alcotest.(check bytes) "the bytes get returned" fetched b
  | None -> Alcotest.fail "expected a resident read");
  (* The still-open creation segment is read from memory. *)
  with_store (fun vfs store small _ _ ->
      let oid = Mneme.Store.allocate small (Bytes.of_string "open") in
      let before = io_state vfs in
      Alcotest.(check (option bytes)) "open segment" (Some (Bytes.of_string "open"))
        (Mneme.Store.fetch_resident store oid);
      Alcotest.(check bool) "open segment: no I/O" true (io_state vfs = before))

(* [image] with a few bits flipped at or past [first_bit], keeping its
   CRC32: the CRC is affine over GF(2), so the CRC changes of single-bit
   flips are linear and any 33 of them are dependent.  Elimination finds
   a non-empty set of flips whose changes cancel. *)
let crc_twin image ~first_bit =
  let crc = Util.Crc32.digest_bytes image in
  let flip b bit =
    let b = Bytes.copy b in
    let i = bit / 8 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))));
    b
  in
  let delta bit = Util.Crc32.digest_bytes (flip image bit) lxor crc in
  let top v =
    let rec go i = if v lsr i = 1 then i else go (i + 1) in
    go 0
  in
  let basis = Hashtbl.create 32 in
  let rec reduce v flips =
    if v = 0 then Some flips
    else
      match Hashtbl.find_opt basis (top v) with
      | Some (bv, bf) -> reduce (v lxor bv) (bf @ flips)
      | None ->
        Hashtbl.add basis (top v) (v, flips);
        None
  in
  let rec go bit =
    match reduce (delta bit) [ bit ] with
    | Some flips -> List.fold_left flip image flips (* a bit flipped twice cancels *)
    | None -> go (bit + 1)
  in
  go first_bit

(* The two paths that rewrite a flushed segment in place replace its
   resident frame: the next read returns the new bytes from memory. *)
let test_rewrites_replace_frames () =
  let vfs, store, _, packed, fixed = framed_session () in
  let check_read label oid expected =
    let before = file_accesses vfs in
    Alcotest.(check bytes) (label ^ ": the new bytes") expected (Mneme.Store.get store oid);
    Alcotest.(check int) (label ^ ": no device read") before (file_accesses vfs)
  in
  (* write_back, packed and fixed-slot. *)
  let oid = List.hd packed in
  ignore (Mneme.Store.get store oid);
  Mneme.Store.modify store oid (payload 77 200);
  check_read "packed modify" oid (payload 77 200);
  let oid = List.hd fixed in
  ignore (Mneme.Store.get store oid);
  Mneme.Store.modify store oid (payload 78 10);
  check_read "fixed-slot modify" oid (payload 78 10);
  (* repair_segment, with a replacement that differs from the frame yet
     carries the recorded CRC32. *)
  let oid = List.nth packed 2 in
  let pool = Mneme.Store.pool store "medium" in
  let pseg = Option.get (Mneme.Store.locate_pseg store oid) in
  let image = Mneme.Store.segment_raw pool pseg in
  let _, off, len =
    List.find (fun (o, _, _) -> o = oid) (Mneme.Store.parse_packed_directory image)
  in
  let twin = crc_twin image ~first_bit:(8 * off) in
  let expected = Bytes.sub twin off len in
  Alcotest.(check bool) "the replacement differs" false (Bytes.equal expected (payload 2 300));
  Alcotest.(check bool) "repair accepted" true
    (Mneme.Store.repair_segment pool ~pseg twin = Ok ());
  check_read "repair" oid expected

(* A segment that fails its CRC32 never becomes a frame: the next read
   goes to the device again, and only a verified read makes one. *)
let test_corrupt_segment_never_framed () =
  let vfs, store, frames, packed, _ = framed_session () in
  let oid = List.hd packed in
  let pool = Mneme.Store.pool store "medium" in
  Alcotest.(check bool) "exists" true (Mneme.Store.exists store oid);
  let pseg = Option.get (Mneme.Store.locate_pseg store oid) in
  let off, len = List.assoc pseg (Mneme.Store.pool_segments pool) in
  let good = Vfs.read (Vfs.open_file vfs "f.mneme") ~off ~len in
  (* The rot lands on the platter at the next physical read. *)
  Vfs.purge_os_cache vfs;
  Vfs.set_fault vfs
    (Vfs.Fault.flip_bits_on_read ~io:1 ~seed:3 ~first:off ~last:(off + len - 1) ~bits:2 ());
  let corrupt () =
    match Mneme.Store.get store oid with _ -> false | exception Mneme.Store.Corrupt _ -> true
  in
  Alcotest.(check bool) "the rotten read raises Corrupt" true (corrupt ());
  Vfs.clear_fault vfs;
  Alcotest.(check int) "no frame" 0
    (Util.Block_cache.stats frames).Util.Cache_stats.resident_entries;
  Alcotest.(check bool) "not resident" true (Mneme.Store.fetch_resident store oid = None);
  let before = file_accesses vfs in
  Alcotest.(check bool) "the next read fails again" true (corrupt ());
  Alcotest.(check bool) "at the device" true (file_accesses vfs > before);
  Alcotest.(check bool) "healed" true (Mneme.Store.repair_segment pool ~pseg good = Ok ());
  Alcotest.(check bytes) "the read after the heal" (payload 0 300) (Mneme.Store.get store oid);
  Alcotest.(check bool) "is the first to make a frame" true
    (Mneme.Store.fetch_resident store oid = Some (payload 0 300))

let prop_roundtrip_random_sizes =
  QCheck.Test.make ~name:"store roundtrips random object sizes" ~count:25
    QCheck.(list_of_size (QCheck.Gen.int_range 1 60) (int_range 0 9000))
    (fun sizes ->
      let vfs = Vfs.create () in
      let store = Mneme.Store.create vfs "q.mneme" in
      let small = Mneme.Store.add_pool store Mneme.Policy.small in
      let medium = Mneme.Store.add_pool store Mneme.Policy.medium in
      let large = Mneme.Store.add_pool store Mneme.Policy.large in
      List.iter
        (fun (pool, name) ->
          Mneme.Store.attach_buffer pool (Mneme.Buffer_pool.create ~name ~capacity:50_000 ()))
        [ (small, "s"); (medium, "m"); (large, "l") ];
      let pool_for size = if size <= 12 then small else if size > 4096 then large else medium in
      let objs =
        List.mapi (fun i size -> (Mneme.Store.allocate (pool_for size) (payload i size), i, size)) sizes
      in
      Mneme.Store.finalize store;
      List.for_all (fun (oid, i, size) -> Mneme.Store.get store oid = payload i size) objs)

let suite =
  [
    Alcotest.test_case "allocate/get small" `Quick test_allocate_get_small;
    Alcotest.test_case "small payload bound" `Quick test_small_payload_bound;
    Alcotest.test_case "many objects across lsegs" `Quick test_allocate_many_across_lsegs;
    Alcotest.test_case "medium pool clustering" `Quick test_medium_pool_clustering;
    Alcotest.test_case "large pool singleton" `Quick test_large_pool_singleton;
    Alcotest.test_case "mixed pools roundtrip" `Quick test_mixed_pools_roundtrip;
    Alcotest.test_case "get missing" `Quick test_get_missing;
    Alcotest.test_case "exists does not fault" `Quick test_exists_no_fault;
    Alcotest.test_case "persistence roundtrip" `Quick test_persistence_roundtrip;
    Alcotest.test_case "a second finalize wastes the first one's tables" `Quick
      test_refinalize_wastes_old_tables;
    Alcotest.test_case "open missing/unfinalized" `Quick test_open_missing_and_unfinalized;
    Alcotest.test_case "allocation after reopen" `Quick test_allocation_continues_after_reopen;
    Alcotest.test_case "modify in place" `Quick test_modify_in_place;
    Alcotest.test_case "modify relocates" `Quick test_modify_relocates_when_growing;
    Alcotest.test_case "modify fixed slot" `Quick test_modify_fixed_slot;
    Alcotest.test_case "modify before finalize" `Quick test_modify_before_finalize;
    Alcotest.test_case "delete" `Quick test_delete;
    Alcotest.test_case "reserve pins resident" `Quick test_reserve_pins_resident;
    Alcotest.test_case "pool lookup" `Quick test_pool_lookup;
    Alcotest.test_case "pool object counts" `Quick test_pool_object_counts;
    Alcotest.test_case "empty object" `Quick test_empty_object;
    Alcotest.test_case "oversized packed object" `Quick test_oversized_packed_object;
    Alcotest.test_case "segment alignment" `Quick test_segment_alignment;
    Alcotest.test_case "finalize idempotent" `Quick test_finalize_idempotent;
    Alcotest.test_case "compact" `Quick test_compact;
    Alcotest.test_case "compact requires finalize" `Quick test_compact_requires_finalize;
    Alcotest.test_case "frames: fetch_resident does no I/O" `Quick test_fetch_resident_does_no_io;
    Alcotest.test_case "frames: in-place rewrites replace them" `Quick
      test_rewrites_replace_frames;
    Alcotest.test_case "frames: a corrupt segment never becomes one" `Quick
      test_corrupt_segment_never_framed;
    QCheck_alcotest.to_alcotest prop_roundtrip_random_sizes;
  ]
