(* Inverted list records: compression roundtrips, folds, updates. *)

let sample = [ (3, [ 0; 5; 9 ]); (7, [ 2 ]); (100, [ 1; 2; 3; 4 ]) ]

let test_encode_decode () =
  let b = Inquery.Postings.encode sample in
  let decoded = Inquery.Postings.decode b in
  Alcotest.(check int) "df" 3 (List.length decoded);
  List.iter2
    (fun (doc, positions) dp ->
      Alcotest.(check int) "doc" doc dp.Inquery.Postings.doc;
      Alcotest.(check (list int)) "positions" positions dp.Inquery.Postings.positions)
    sample decoded

let test_stats () =
  let b = Inquery.Postings.encode sample in
  let df, cf = Inquery.Postings.stats b in
  Alcotest.(check int) "df" 3 df;
  Alcotest.(check int) "cf" 8 cf;
  Alcotest.(check int) "doc_count" 3 (Inquery.Postings.doc_count b)

let test_empty () =
  let b = Inquery.Postings.encode [] in
  Alcotest.(check (pair int int)) "stats" (0, 0) (Inquery.Postings.stats b);
  Alcotest.(check int) "decode" 0 (List.length (Inquery.Postings.decode b))

let test_fold_docs_skips_positions () =
  let b = Inquery.Postings.encode sample in
  let pairs =
    Inquery.Postings.fold_docs b ~init:[] ~f:(fun acc ~doc ~tf -> (doc, tf) :: acc) |> List.rev
  in
  Alcotest.(check (list (pair int int))) "doc/tf" [ (3, 3); (7, 1); (100, 4) ] pairs

let test_validation () =
  let invalid entries =
    match Inquery.Postings.encode entries with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "unsorted docs" true (invalid [ (5, [ 1 ]); (3, [ 1 ]) ]);
  Alcotest.(check bool) "duplicate docs" true (invalid [ (5, [ 1 ]); (5, [ 2 ]) ]);
  Alcotest.(check bool) "empty positions" true (invalid [ (5, []) ]);
  Alcotest.(check bool) "unsorted positions" true (invalid [ (5, [ 3; 1 ]) ])

let test_single_tiny_record () =
  (* A df=1, tf=1 record is just a few bytes: the small-object story. *)
  let b = Inquery.Postings.encode [ (42, [ 7 ]) ] in
  Alcotest.(check bool) "tiny" true (Bytes.length b <= 12);
  Alcotest.(check (pair int int)) "stats" (1, 1) (Inquery.Postings.stats b)

let test_compression_effective () =
  (* Dense ascending docs make gaps small: far fewer bytes than 4 per
     int, which is what the paper's ~60% compression is about. *)
  let entries = List.init 1000 (fun i -> (i * 2, [ i mod 50 ])) in
  let b = Inquery.Postings.encode entries in
  let uncompressed = 1000 * 3 * 4 in
  Alcotest.(check bool) "beats 12 bytes per posting" true (Bytes.length b * 2 < uncompressed)

(* [concat] joins records whose document ranges are disjoint and in
   order: a term's chunks, or a stored record and its new postings. *)
let test_merge_disjoint () =
  let a = Inquery.Postings.encode [ (1, [ 0 ]); (3, [ 1; 2 ]) ] in
  let b = Inquery.Postings.encode [ (5, [ 9 ]); (7, [ 4 ]) ] in
  let m = Option.get (Inquery.Postings.concat [ a; b ]) in
  let docs = List.map (fun dp -> dp.Inquery.Postings.doc) (Inquery.Postings.decode m) in
  Alcotest.(check (list int)) "in order" [ 1; 3; 5; 7 ] docs;
  let df, cf = Inquery.Postings.stats m in
  Alcotest.(check int) "df" 4 df;
  Alcotest.(check int) "cf" 5 cf

let test_merge_overlap_rejected () =
  let rejected records =
    match Inquery.Postings.concat records with _ -> false | exception Invalid_argument _ -> true
  in
  let one = Inquery.Postings.encode [ (1, [ 0 ]) ] in
  Alcotest.(check bool) "overlap" true
    (rejected [ one; Inquery.Postings.encode [ (1, [ 1 ]) ] ]);
  Alcotest.(check bool) "out of order" true
    (rejected
       [
         Inquery.Postings.encode [ (1, [ 0 ]); (5, [ 1 ]) ]; Inquery.Postings.encode [ (3, [ 1 ]) ];
       ]);
  (* A dropped document still has to be in order. *)
  Alcotest.(check bool) "out of order, dropped" true
    (match Inquery.Postings.concat ~keep:(fun d -> d <> 1) [ one; one ] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_merge_empty () =
  let a = Inquery.Postings.encode [ (1, [ 0 ]) ] in
  let e = Inquery.Postings.encode [] in
  Alcotest.(check int) "concat with empty" 1
    (Inquery.Postings.doc_count (Option.get (Inquery.Postings.concat [ a; e ])));
  Alcotest.(check bool) "nothing to concat" true (Inquery.Postings.concat [] = None);
  Alcotest.(check bool) "only empty records" true (Inquery.Postings.concat [ e; e ] = None)

let test_remove_docs () =
  let b = Inquery.Postings.encode sample in
  (match Inquery.Postings.concat ~keep:(fun doc -> doc <> 7) [ b ] with
  | Some b' ->
    let docs = List.map (fun dp -> dp.Inquery.Postings.doc) (Inquery.Postings.decode b') in
    Alcotest.(check (list int)) "removed" [ 3; 100 ] docs;
    let df, cf = Inquery.Postings.stats b' in
    Alcotest.(check int) "df updated" 2 df;
    Alcotest.(check int) "cf updated" 7 cf
  | None -> Alcotest.fail "should not be empty");
  match Inquery.Postings.concat ~keep:(fun _ -> false) [ b ] with
  | None -> ()
  | Some _ -> Alcotest.fail "should be empty"

let gen_entries =
  QCheck.Gen.(
    list_size (int_range 1 40)
      (pair (int_range 1 20) (list_size (int_range 1 8) (int_range 1 50)))
    |> map (fun raw ->
           let _, entries =
             List.fold_left
               (fun (doc, acc) (doc_gap, pos_gaps) ->
                 let doc = doc + doc_gap in
                 let _, positions =
                   List.fold_left
                     (fun (p, ps) gap ->
                       let p = p + gap in
                       (p, p :: ps))
                     (-1, []) pos_gaps
                 in
                 (doc, (doc, List.rev positions) :: acc))
               (-1, []) raw
           in
           List.rev entries))

let prop_roundtrip =
  QCheck.Test.make ~name:"postings roundtrip" ~count:300 (QCheck.make gen_entries) (fun entries ->
      let b = Inquery.Postings.encode entries in
      let decoded = Inquery.Postings.decode b in
      List.map (fun dp -> (dp.Inquery.Postings.doc, dp.Inquery.Postings.positions)) decoded
      = entries)

let prop_fold_consistent =
  QCheck.Test.make ~name:"fold_docs agrees with decode" ~count:200 (QCheck.make gen_entries)
    (fun entries ->
      let b = Inquery.Postings.encode entries in
      let via_fold =
        Inquery.Postings.fold_docs b ~init:[] ~f:(fun acc ~doc ~tf -> (doc, tf) :: acc)
        |> List.rev
      in
      via_fold = List.map (fun (doc, ps) -> (doc, List.length ps)) entries)

(* --- format v2: version sniffing, skip blocks, cursors ------------- *)

let pairs_of b =
  List.map (fun dp -> (dp.Inquery.Postings.doc, dp.Inquery.Postings.positions))
    (Inquery.Postings.decode b)

let big_entries n = List.init n (fun i -> (i * 3, [ i mod 7; (i mod 7) + 2 ]))

let cursor_walk b =
  let cur = Inquery.Postings.cursor b in
  let rec go acc =
    if Inquery.Postings.cur_doc cur = max_int then List.rev acc
    else begin
      let d = Inquery.Postings.cur_doc cur and tf = Inquery.Postings.cur_tf cur in
      Inquery.Postings.cursor_next cur;
      go ((d, tf) :: acc)
    end
  in
  go []

let fold_pairs b =
  Inquery.Postings.fold_docs b ~init:[] ~f:(fun acc ~doc ~tf -> (doc, tf) :: acc) |> List.rev

let test_version_sniff () =
  Alcotest.(check int) "tiny is v1" 1
    (Inquery.Postings.version (Inquery.Postings.encode sample));
  Alcotest.(check int) "empty is v1" 1 (Inquery.Postings.version (Inquery.Postings.encode []));
  let big = big_entries 200 in
  Alcotest.(check int) "big is v2" 2 (Inquery.Postings.version (Inquery.Postings.encode big));
  Alcotest.(check int) "encode_v1 stays v1" 1
    (Inquery.Postings.version (Inquery.Postings.encode_v1 big))

let test_v1_compat_roundtrip () =
  (* Records written by the pre-PR encoder (kept verbatim as encode_v1)
     must stay readable through every entry point. *)
  List.iter
    (fun entries ->
      let b = Inquery.Postings.encode_v1 entries in
      Alcotest.(check int) "version" 1 (Inquery.Postings.version b);
      Alcotest.(check bool) "decode" true (pairs_of b = entries);
      let df, cf = Inquery.Postings.stats b in
      Alcotest.(check int) "df" (List.length entries) df;
      Alcotest.(check int) "cf"
        (List.fold_left (fun a (_, ps) -> a + List.length ps) 0 entries)
        cf;
      Alcotest.(check bool) "validate" true (Inquery.Postings.validate b = Ok ());
      Alcotest.(check bool) "no skip table" true
        (Inquery.Postings.skip_table_region b = None);
      Alcotest.(check bool) "no max_tf header" true (Inquery.Postings.max_tf b = None);
      Alcotest.(check bool) "cursor walk" true
        (cursor_walk b = List.map (fun (d, ps) -> (d, List.length ps)) entries))
    [ sample; big_entries 500; [ (0, [ 0 ]) ] ]

let test_multi_block_roundtrip () =
  let entries = big_entries 500 in
  let b = Inquery.Postings.encode entries in
  Alcotest.(check int) "v2" 2 (Inquery.Postings.version b);
  (match Inquery.Postings.skip_table_region b with
  | None -> Alcotest.fail "expected a skip table"
  | Some (off, len) ->
    Alcotest.(check bool) "region inside record" true
      (off > 0 && len > 0 && off + len <= Bytes.length b));
  Alcotest.(check bool) "decode roundtrip" true (pairs_of b = entries);
  Alcotest.(check bool) "max_tf header" true (Inquery.Postings.max_tf b = Some 2);
  Alcotest.(check bool) "validate" true (Inquery.Postings.validate b = Ok ());
  Alcotest.(check bool) "cursor walk = fold" true (cursor_walk b = fold_pairs b);
  let df, cf = Inquery.Postings.stats b in
  Alcotest.(check int) "df" 500 df;
  Alcotest.(check int) "cf" 1000 cf

let test_builder_matches_encode () =
  List.iter
    (fun entries ->
      let bld = Inquery.Postings.Builder.create () in
      List.iter (fun (d, ps) -> Inquery.Postings.Builder.add bld ~doc:d ~positions:ps) entries;
      Alcotest.(check string) "builder = encode"
        (Bytes.to_string (Inquery.Postings.encode entries))
        (Bytes.to_string (Inquery.Postings.Builder.finish bld)))
    [ []; sample; big_entries 9; big_entries 300 ]

let test_cursor_seek_v2 () =
  let entries = List.init 1000 (fun i -> (i * 5, [ 0 ])) in
  let b = Inquery.Postings.encode entries in
  let cur = Inquery.Postings.cursor b in
  Inquery.Postings.cursor_seek cur 3000;
  Alcotest.(check int) "lands on target" 3000 (Inquery.Postings.cur_doc cur);
  Alcotest.(check bool) "blocks skipped" true (Inquery.Postings.cursor_blocks_skipped cur > 0);
  Alcotest.(check bool) "decoded less than scanned" true
    (Inquery.Postings.cursor_decoded cur < 300);
  Inquery.Postings.cursor_seek cur 2000;
  Alcotest.(check int) "backward seek is a no-op" 3000 (Inquery.Postings.cur_doc cur);
  Inquery.Postings.cursor_seek cur 3001;
  Alcotest.(check int) "first doc >= target" 3005 (Inquery.Postings.cur_doc cur);
  Inquery.Postings.cursor_seek cur 999_999;
  Alcotest.(check int) "past the end" max_int (Inquery.Postings.cur_doc cur);
  Alcotest.(check bool) "seeks counted" true (Inquery.Postings.cursor_seeks cur > 0)

let test_cursor_seek_v1 () =
  let entries = List.init 6 (fun i -> (i * 10, [ 1 ])) in
  let b = Inquery.Postings.encode_v1 entries in
  let cur = Inquery.Postings.cursor b in
  Inquery.Postings.cursor_seek cur 35;
  Alcotest.(check int) "linear seek" 40 (Inquery.Postings.cur_doc cur);
  Alcotest.(check int) "no blocks to skip" 0 (Inquery.Postings.cursor_blocks_skipped cur)

let test_cursor_empty () =
  let cur = Inquery.Postings.cursor (Inquery.Postings.encode []) in
  Alcotest.(check int) "exhausted" max_int (Inquery.Postings.cur_doc cur)

let test_skip_table_bitflip () =
  (* Any single-bit flip inside the skip table must be detected by
     [validate], while the scan path (decode walks the doc region
     directly) keeps returning the original postings. *)
  let entries = big_entries 400 in
  let b = Inquery.Postings.encode entries in
  let reference = pairs_of b in
  match Inquery.Postings.skip_table_region b with
  | None -> Alcotest.fail "expected a skip table"
  | Some (off, len) ->
    for byte = off to off + len - 1 do
      for bit = 0 to 7 do
        let b' = Bytes.copy b in
        Bytes.set b' byte (Char.chr (Char.code (Bytes.get b' byte) lxor (1 lsl bit)));
        (match Inquery.Postings.validate b' with
        | Ok () -> Alcotest.failf "flip at byte %d bit %d undetected" byte bit
        | Error _ -> ());
        if pairs_of b' <> reference then
          Alcotest.failf "scan path changed by flip at byte %d bit %d" byte bit
      done
    done

(* --- the two layouts ------------------------------------------------ *)

(* Entries with enough irregularity (varying gaps and tfs) that blocks
   differ in their bytes. *)
let tier_entries n =
  let doc = ref 0 in
  List.init n (fun i ->
      doc := !doc + 1 + (i mod 7);
      let stride = (i mod 5) + 2 in
      (!doc, List.init ((i mod 4) + 1) (fun p -> p * stride)))

(* v1 below the cutoff and v-byte v2 from it on, at the former raw
   (63/64) and cold (1023/1024) boundaries too, from [encode], from
   [Builder] and from [concat] of the record cut in two. *)
let test_tier_assignment () =
  List.iter
    (fun (n, expect) ->
      let entries = tier_entries n in
      let b = Inquery.Postings.encode entries in
      let bld = Inquery.Postings.Builder.create () in
      List.iter (fun (doc, positions) -> Inquery.Postings.Builder.add bld ~doc ~positions) entries;
      let halves = List.partition (fun (doc, _) -> doc <= fst (List.nth entries (n / 2))) entries in
      let joined =
        Inquery.Postings.concat
          [ Inquery.Postings.encode (fst halves); Inquery.Postings.encode (snd halves) ]
      in
      List.iter
        (fun (what, r) ->
          Alcotest.(check string)
            (Printf.sprintf "df %d %s" n what)
            (Inquery.Postings.tier_name expect)
            (Inquery.Postings.tier_name (Inquery.Postings.tier r)))
        [
          ("encode", b);
          ("builder", Inquery.Postings.Builder.finish bld);
          ("concat", Option.get joined);
        ];
      Alcotest.(check string) "tier_of_df agrees"
        (Inquery.Postings.tier_name (Inquery.Postings.tier_of_df n))
        (Inquery.Postings.tier_name (Inquery.Postings.tier b)))
    [
      (3, Inquery.Postings.V1);
      (7, Inquery.Postings.V1);
      (8, Inquery.Postings.Vbyte);
      (63, Inquery.Postings.Vbyte);
      (64, Inquery.Postings.Vbyte);
      (1023, Inquery.Postings.Vbyte);
      (1024, Inquery.Postings.Vbyte);
      (1324, Inquery.Postings.Vbyte);
    ]

let test_all_tiers_roundtrip () =
  List.iter
    (fun n ->
      let entries = tier_entries n in
      let b = Inquery.Postings.encode entries in
      Alcotest.(check bool) (Printf.sprintf "df %d decode" n) true (pairs_of b = entries);
      Alcotest.(check bool) (Printf.sprintf "df %d validate" n) true
        (Inquery.Postings.validate b = Ok ());
      Alcotest.(check bool) (Printf.sprintf "df %d cursor = fold" n) true
        (cursor_walk b = fold_pairs b);
      let cf = List.fold_left (fun a (_, ps) -> a + List.length ps) 0 entries in
      Alcotest.(check (pair int int)) (Printf.sprintf "df %d stats" n) (n, cf)
        (Inquery.Postings.stats b))
    [ 8; 40; 63; 64; 200; 1023; 1024; 1300 ]

(* Every single-bit flip anywhere in a v-byte doc region must be flagged
   by [validate].  A flip either breaks a varint's extent (the block's
   byte count against the skip table), shifts a gap (every later doc id
   moves, so the skip table's last-doc cross-check fires) or changes a
   tf (cf, max_tf or the position region's extent).  Returns the number
   of flips tried. *)
let flip_sweep name entries ~limit =
  let b = Inquery.Postings.encode entries in
  Alcotest.(check string) (name ^ " tier") "vbyte"
    (Inquery.Postings.tier_name (Inquery.Postings.tier b));
  match Inquery.Postings.doc_region b with
  | None -> Alcotest.fail "expected a v2 doc region"
  | Some (off, len) ->
    (* Sweep the head of the region (first blocks) and its tail (last,
       ragged block): the middle blocks cover no new code path. *)
    let limit = min limit len in
    let ranges =
      if len <= 2 * limit then [ (off, off + len - 1) ]
      else [ (off, off + limit - 1); (off + len - limit, off + len - 1) ]
    in
    List.iter
      (fun (lo, hi) ->
        for byte = lo to hi do
          for bit = 0 to 7 do
            let b' = Bytes.copy b in
            Bytes.set b' byte (Char.chr (Char.code (Bytes.get b' byte) lxor (1 lsl bit)));
            match Inquery.Postings.validate b' with
            | Ok () -> Alcotest.failf "%s: flip at byte %d bit %d undetected" name byte bit
            | Error _ -> ()
          done
        done)
      ranges;
    List.fold_left (fun n (lo, hi) -> n + (8 * (hi - lo + 1))) 0 ranges

(* The two sweeps keep the test names of the df ranges the retired raw
   (8 <= df < 64) and cold (df >= 1024) tiers covered; both ranges are
   v-byte records now. *)

(* The whole region of a one-block record. *)
let test_one_block_bitflips () =
  Alcotest.(check int) "df 40 flips" 640 (flip_sweep "df 40" (tier_entries 40) ~limit:max_int)

(* The head and tail of a nine-block record's region. *)
let test_many_block_bitflips () =
  Alcotest.(check int) "df 1124 flips" 3072 (flip_sweep "df 1124" (tier_entries 1124) ~limit:192)

let test_mixed_tier_seek () =
  (* The same skip table drives seeks in every tier: binary-search the
     blocks, decode one, binary-search inside it. *)
  List.iter
    (fun n ->
      let entries = tier_entries n in
      let b = Inquery.Postings.encode entries in
      let docs = List.map fst entries in
      let targets =
        [ 0; List.nth docs (n / 3); List.nth docs (n / 3) + 1; List.nth docs (n - 1); max_int / 2 ]
      in
      List.iter
        (fun target ->
          let cur = Inquery.Postings.cursor b in
          Inquery.Postings.cursor_seek cur target;
          let expect =
            match List.find_opt (fun d -> d >= target) docs with
            | Some d -> d
            | None -> max_int
          in
          Alcotest.(check int)
            (Printf.sprintf "df %d seek %d" n target)
            expect (Inquery.Postings.cur_doc cur))
        targets)
    [ 40; 200; 1300 ]

let gen_block_entries =
  QCheck.Gen.(
    list_size (int_range 64 320)
      (pair (int_range 1 6) (list_size (int_range 1 4) (int_range 1 12)))
    |> map (fun raw ->
           let _, entries =
             List.fold_left
               (fun (doc, acc) (doc_gap, pos_gaps) ->
                 let doc = doc + doc_gap in
                 let _, positions =
                   List.fold_left
                     (fun (p, ps) gap ->
                       let p = p + gap in
                       (p, p :: ps))
                     (-1, []) pos_gaps
                 in
                 (doc, (doc, List.rev positions) :: acc))
               (-1, []) raw
           in
           List.rev entries))

let prop_v2_roundtrip =
  QCheck.Test.make ~name:"v2 multi-block roundtrip + validate" ~count:100
    (QCheck.make gen_block_entries) (fun entries ->
      let b = Inquery.Postings.encode entries in
      pairs_of b = entries && Inquery.Postings.validate b = Ok ())

let prop_cursor_matches_fold =
  QCheck.Test.make ~name:"cursor walk = fold_docs (v1 and v2)" ~count:100
    (QCheck.make gen_entries) (fun entries ->
      let check enc =
        let b = enc entries in
        cursor_walk b = fold_pairs b
      in
      check Inquery.Postings.encode && check Inquery.Postings.encode_v1)

let prop_seek_first_geq =
  QCheck.Test.make ~name:"seek lands on first doc >= target" ~count:100
    (QCheck.make QCheck.Gen.(pair gen_block_entries (int_range 0 2200)))
    (fun (entries, target) ->
      let b = Inquery.Postings.encode entries in
      let cur = Inquery.Postings.cursor b in
      Inquery.Postings.cursor_seek cur target;
      let expect =
        match List.find_opt (fun (d, _) -> d >= target) entries with
        | Some (d, _) -> d
        | None -> max_int
      in
      Inquery.Postings.cur_doc cur = expect)

(* [concat] against its definition: encoding the inputs' decoded
   entries, kept ones only, in the layout of the result's document
   count.  One sorted entry list is cut into up to four consecutive
   records, each encoded on its own, and the lengths straddle the v1
   cutoff (7/8) and make one- and many-block v2 records (63/64,
   1023/1024), so inputs and results cover both layouts. *)
let gen_concat_case =
  QCheck.Gen.(
    let* n = oneofl [ 1; 7; 8; 9; 63; 64; 65; 1023; 1024; 1025 ] in
    let* n = map (fun d -> max 1 (n + d)) (int_range (-1) 1) in
    let* gaps = list_repeat n (int_range 1 9) in
    let* tfs = list_repeat n (int_range 1 3) in
    let* cuts = list_size (int_range 0 3) (int_range 0 n) in
    let* drop = oneofl [ None; Some 2; Some 3; Some 7 ] in
    let entries =
      List.rev
        (snd
           (List.fold_left2
              (fun (doc, acc) gap tf ->
                (doc + gap, (doc + gap, List.init tf (fun p -> 2 * p)) :: acc))
              (-1, []) gaps tfs))
    in
    return (entries, List.sort_uniq compare cuts, drop))

let prop_concat_is_encode =
  QCheck.Test.make ~name:"concat = encode of the kept decoded entries" ~count:150
    (QCheck.make gen_concat_case) (fun (entries, cuts, drop) ->
      let rec split i entries cuts =
        match cuts with
        | [] -> [ entries ]
        | c :: rest ->
          let before = List.filteri (fun j _ -> i + j < c) entries in
          let after = List.filteri (fun j _ -> i + j >= c) entries in
          before :: split c after rest
      in
      let records = List.map Inquery.Postings.encode (split 0 entries cuts) in
      let keep = Option.map (fun k doc -> doc mod k <> 0) drop in
      let kept =
        List.filter (fun (doc, _) -> Option.fold ~none:true ~some:(fun k -> k doc) keep) entries
      in
      let expect = if kept = [] then None else Some (Inquery.Postings.encode kept) in
      let got = Inquery.Postings.concat ?keep records in
      got = expect
      && Option.fold ~none:true
           ~some:(fun r ->
             Inquery.Postings.tier r = Inquery.Postings.tier_of_df (Inquery.Postings.doc_count r))
           got)

(* Decoder totality: whatever bytes arrive, [validate] answers without
   raising, and a record it accepts decodes, walks, concatenates and
   reports its statistics without raising, its cursor agreeing with
   [fold_docs].  Inputs are arbitrary strings (some behind a v2
   sentinel), and truncations and 1-4 byte overwrites of v1 and v2
   records of one or many blocks. *)
let gen_damaged_record =
  QCheck.Gen.(
    let record =
      let* entries = oneof [ gen_entries; gen_block_entries ] in
      let* enc = oneofl [ Inquery.Postings.encode; Inquery.Postings.encode_v1 ] in
      return (enc entries)
    in
    let arbitrary =
      let* prefix = oneofl [ ""; "\x80\x02" ] in
      let* body = string_size (int_range 0 48) in
      return (Bytes.of_string (prefix ^ body))
    in
    let truncated =
      let* r = record in
      let* n = int_range 0 (Bytes.length r - 1) in
      return (Bytes.sub r 0 n)
    in
    let overwritten =
      let* r = record in
      let* writes = list_size (int_range 1 4) (pair (int_range 0 (Bytes.length r - 1)) char) in
      let r = Bytes.copy r in
      List.iter (fun (i, c) -> Bytes.set r i c) writes;
      return r
    in
    frequency [ (1, arbitrary); (1, truncated); (3, overwritten) ])

let prop_decoders_total =
  QCheck.Test.make ~name:"decoders total on damaged records" ~count:10000
    (QCheck.make ~print:(fun b -> String.escaped (Bytes.to_string b)) gen_damaged_record)
    (fun b ->
      match Inquery.Postings.validate b with
      | Error _ -> true
      | Ok () ->
        ignore (Inquery.Postings.decode b);
        ignore (Inquery.Postings.concat [ b ]);
        ignore (Inquery.Postings.record_stats b);
        cursor_walk b = fold_pairs b)

let suite =
  [
    Alcotest.test_case "encode/decode" `Quick test_encode_decode;
    Alcotest.test_case "stats" `Quick test_stats;
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "fold_docs" `Quick test_fold_docs_skips_positions;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "tiny record" `Quick test_single_tiny_record;
    Alcotest.test_case "compression effective" `Quick test_compression_effective;
    Alcotest.test_case "merge disjoint" `Quick test_merge_disjoint;
    Alcotest.test_case "merge overlap rejected" `Quick test_merge_overlap_rejected;
    Alcotest.test_case "merge empty" `Quick test_merge_empty;
    Alcotest.test_case "remove docs" `Quick test_remove_docs;
    Alcotest.test_case "version sniff" `Quick test_version_sniff;
    Alcotest.test_case "v1 compat roundtrip" `Quick test_v1_compat_roundtrip;
    Alcotest.test_case "multi-block roundtrip" `Quick test_multi_block_roundtrip;
    Alcotest.test_case "builder matches encode" `Quick test_builder_matches_encode;
    Alcotest.test_case "cursor seek (v2 skip table)" `Quick test_cursor_seek_v2;
    Alcotest.test_case "cursor seek (v1 linear)" `Quick test_cursor_seek_v1;
    Alcotest.test_case "cursor on empty record" `Quick test_cursor_empty;
    Alcotest.test_case "skip-table bit flips detected" `Quick test_skip_table_bitflip;
    Alcotest.test_case "tier assignment" `Quick test_tier_assignment;
    Alcotest.test_case "all tiers roundtrip" `Quick test_all_tiers_roundtrip;
    Alcotest.test_case "raw-tier doc-region bit flips detected" `Quick test_one_block_bitflips;
    Alcotest.test_case "cold-tier doc-region bit flips detected" `Quick test_many_block_bitflips;
    Alcotest.test_case "mixed-tier seek" `Quick test_mixed_tier_seek;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_fold_consistent;
    QCheck_alcotest.to_alcotest prop_v2_roundtrip;
    QCheck_alcotest.to_alcotest prop_cursor_matches_fold;
    QCheck_alcotest.to_alcotest prop_seek_first_geq;
    QCheck_alcotest.to_alcotest prop_concat_is_encode;
    QCheck_alcotest.to_alcotest prop_decoders_total;
  ]
