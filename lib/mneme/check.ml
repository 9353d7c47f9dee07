type problem = { where : string; what : string }

type report = {
  problems : problem list;
  objects_seen : int;
  psegs_seen : int;
  pools_seen : int;
}

let ok r = r.problems = []

let run ?object_check store =
  let problems = ref [] in
  let flag where what = problems := { where; what } :: !problems in
  (* 2b. Application-level payload validation: when the caller knows
     what the stored bytes mean (e.g. postings records with skip
     tables), each live object's payload is handed to its checker.
     Sealed roots are not payloads: the latest epoch's and any a pinned
     reader still holds must unseal instead.  Problems are flagged like
     any other — never raised. *)
  let apply_object_check =
    match object_check with
    | None -> fun _ _ -> ()
    | Some f -> (
      fun where oid ->
        match Store.get_opt store oid with
        | exception Store.Corrupt msg -> flag where ("object unreadable: " ^ msg)
        | exception Invalid_argument msg -> flag where ("object unreadable: " ^ msg)
        | None -> flag where "live slot resolves to no object"
        | Some payload when Epoch.is_sealed payload -> (
          match Epoch.unseal payload with
          | Ok _ -> ()
          | Error msg -> flag where ("sealed root invalid: " ^ msg))
        | Some payload -> (
          match f payload with
          | Ok () -> ()
          | Error msg -> flag where ("object invalid: " ^ msg)
          | exception _ -> flag where "object checker raised"))
  in
  let objects = ref 0 and psegs = ref 0 and pools_n = ref 0 in
  let file_size = Store.file_size store in
  let pools = Store.pools store in
  List.iter
    (fun pool ->
      incr pools_n;
      let pname = Store.pool_name pool in
      let policy = Store.pool_policy pool in
      let segments = Store.pool_segments pool in
      (* 1. Segment extents lie inside the file and do not overlap. *)
      List.iter
        (fun (id, (off, len)) ->
          incr psegs;
          if off < 0 || len < 0 || off + len > file_size then
            flag
              (Printf.sprintf "%s/pseg %d" pname id)
              (Printf.sprintf "extent [%d, %d) outside file of %d bytes" off (off + len)
                 file_size))
        segments;
      let sorted = List.sort (fun (_, (a, _)) (_, (b, _)) -> compare a b) segments in
      let rec overlaps = function
        | (ida, (offa, lena)) :: ((idb, (offb, _)) :: _ as rest) ->
          if offa + lena > offb then
            flag
              (Printf.sprintf "%s/pseg %d" pname ida)
              (Printf.sprintf "overlaps pseg %d" idb);
          overlaps rest
        | _ -> ()
      in
      overlaps sorted;
      (* 2. Every live slot resolves to an object in its segment. *)
      let live = ref 0 in
      List.iter
        (fun (lseg, slots) ->
          Array.iteri
            (fun slot pseg ->
              if pseg >= 0 then begin
                incr live;
                let where = Printf.sprintf "%s/lseg %d/slot %d" pname lseg slot in
                match List.assoc_opt pseg segments with
                | None -> flag where (Printf.sprintf "points at unknown pseg %d" pseg)
                | Some _ -> (
                  let oid = Oid.make ~lseg ~slot in
                  match Store.segment_raw pool pseg with
                  | exception Store.Corrupt msg -> flag where ("segment unreadable: " ^ msg)
                  | exception Invalid_argument msg ->
                    (* e.g. a truncated file: the extent reaches past
                       EOF, so the read itself is impossible.  Report,
                       never raise — fsck must survive any damage. *)
                    flag where ("segment unreadable: " ^ msg)
                  | seg ->
                    (match policy.Policy.layout with
                    | Policy.Fixed_slots { slot_size } -> (
                      match Store.fixed_slot_length ~slot_size seg ~slot with
                      | Some len ->
                        if len > slot_size - 4 then
                          flag where (Printf.sprintf "slot length %d exceeds payload" len)
                      | None -> flag where "live slot is empty in its segment"
                      | exception Store.Corrupt msg -> flag where msg)
                    | Policy.Packed -> (
                      match Store.parse_packed_directory seg with
                      | exception Store.Corrupt msg -> flag where msg
                      | entries -> (
                        match List.find_opt (fun (o, _, _) -> o = oid) entries with
                        | None -> flag where "object missing from segment directory"
                        | Some (_, off, len) ->
                          if off < 0 || len < 0 || off + len > Bytes.length seg then
                            flag where "object extent outside segment")));
                    apply_object_check where oid)
              end)
            slots)
        (Store.pool_slot_tables pool);
      objects := !objects + !live;
      (* 3. Per-pool object count agrees with the live slots. *)
      let counted = Store.pool_object_count pool in
      if counted <> !live then
        flag pname (Printf.sprintf "pool count %d but %d live slots" counted !live);
      (* 4. Every flushed segment's on-disk bytes match their recorded
         CRC32 (read fresh from the file, bypassing buffered copies).
         An extent outside the file was already flagged by pass 1 and
         cannot be read at all — skip it rather than raise. *)
      List.iter
        (fun (id, (off, len)) ->
          if off >= 0 && len >= 0 && off + len <= file_size then
            match Store.verify_segment_crc pool id with
            | true -> ()
            | false -> flag (Printf.sprintf "%s/pseg %d" pname id) "segment CRC32 mismatch"
            | exception Invalid_argument msg ->
              flag (Printf.sprintf "%s/pseg %d" pname id) ("segment unreadable: " ^ msg))
        segments;
      (* 5. Packed segment directories are internally consistent. *)
      List.iter
        (fun (id, _) ->
          match policy.Policy.layout with
          | Policy.Fixed_slots _ -> ()
          | Policy.Packed -> (
            match Store.parse_packed_directory (Store.segment_raw pool id) with
            | exception Store.Corrupt msg -> flag (Printf.sprintf "%s/pseg %d" pname id) msg
            | exception Invalid_argument msg ->
              flag (Printf.sprintf "%s/pseg %d" pname id) ("segment unreadable: " ^ msg)
            | entries ->
              let sorted_entries =
                List.sort (fun (_, a, _) (_, b, _) -> compare a b) entries
              in
              let rec overlap = function
                | (oa, offa, lena) :: ((_, offb, _) :: _ as rest) ->
                  if offa + lena > offb then
                    flag
                      (Printf.sprintf "%s/pseg %d" pname id)
                      (Printf.sprintf "object %d overlaps its neighbour" oa);
                  overlap rest
                | _ -> ()
              in
              overlap sorted_entries))
        segments)
    pools;
  (* 6. Store-level object count matches the pools. *)
  let total = List.fold_left (fun acc p -> acc + Store.pool_object_count p) 0 pools in
  if total <> Store.object_count store then
    flag "store"
      (Printf.sprintf "header object count %d but pools hold %d" (Store.object_count store)
         total);
  (* 7. The versioned root, when the header names one, is a live object
     whose sealed envelope opens cleanly and agrees with the header's
     epoch.  A torn root-switch must surface here, never parse. *)
  (match Store.root store with
  | None -> ()
  | Some oid -> (
    match Store.get_opt store oid with
    | exception Store.Corrupt msg -> flag "root" ("root object unreadable: " ^ msg)
    | exception Invalid_argument msg -> flag "root" ("root object unreadable: " ^ msg)
    | None -> flag "root" (Printf.sprintf "header names root oid %d but no such object" oid)
    | Some envelope -> (
      match Epoch.unseal envelope with
      | Error msg -> flag "root" msg
      | Ok (epoch, _) ->
        if epoch <> Store.epoch store then
          flag "root"
            (Printf.sprintf "root sealed for epoch %d but header says %d" epoch
               (Store.epoch store)))));
  { problems = List.rev !problems; objects_seen = !objects; psegs_seen = !psegs; pools_seen = !pools_n }

let pp_report fmt r =
  if ok r then
    Format.fprintf fmt "clean: %d objects in %d segments across %d pools" r.objects_seen
      r.psegs_seen r.pools_seen
  else begin
    Format.fprintf fmt "%d problem(s):@." (List.length r.problems);
    List.iter (fun p -> Format.fprintf fmt "  %s: %s@." p.where p.what) r.problems
  end
