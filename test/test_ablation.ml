(* The ablation harness runs and produces structurally sound tables. *)

let ctx = lazy (Core.Ablation.create ~scale:0.1 ())

let row_count table =
  (* header + rule + rows + trailing newline *)
  List.length (String.split_on_char '\n' (Util.Tables.render table)) - 3

let test_policy_table () =
  let t = Core.Ablation.policy_table (Lazy.force ctx) in
  Alcotest.(check int) "3 policies x 2 reservation" 6 (row_count t);
  let out = Util.Tables.render t in
  List.iter
    (fun s -> Alcotest.(check bool) (s ^ " present") true (Str_find.contains out s))
    [ "lru"; "fifo"; "clock"; "on"; "off" ]

let test_medium_pseg_table () =
  let t = Core.Ablation.medium_pseg_table (Lazy.force ctx) in
  Alcotest.(check int) "five sizes" 5 (row_count t)

let test_threshold_table () =
  let t = Core.Ablation.threshold_table (Lazy.force ctx) in
  Alcotest.(check int) "six configurations" 6 (row_count t)

let test_daat_table () =
  let t = Core.Ablation.daat_table (Lazy.force ctx) in
  Alcotest.(check int) "two strategies" 2 (row_count t);
  let out = Util.Tables.render t in
  Alcotest.(check bool) "taat row" true (Str_find.contains out "term-at-a-time");
  Alcotest.(check bool) "daat row" true (Str_find.contains out "document-at-a-time")

let test_update_table () =
  let t = Core.Ablation.update_table ~adds:20 ~deletes:4 () in
  Alcotest.(check int) "two backends" 2 (row_count t);
  let out = Util.Tables.render t in
  Alcotest.(check bool) "btree row" true (Str_find.contains out "btree");
  Alcotest.(check bool) "mneme row" true (Str_find.contains out "mneme")

let test_journal_table () =
  let t = Core.Ablation.journal_table (Lazy.force ctx) in
  Alcotest.(check int) "two configurations" 2 (row_count t);
  let out = Util.Tables.render t in
  Alcotest.(check bool) "journaled row" true (Str_find.contains out "journaled");
  Alcotest.(check bool) "plain row" true (Str_find.contains out "no journal")

let test_btree_cache_table () =
  let t = Core.Ablation.btree_cache_table (Lazy.force ctx) in
  Alcotest.(check int) "four depths" 4 (row_count t)

let test_compression_table () =
  let t = Core.Ablation.compression_table (Lazy.force ctx) in
  Alcotest.(check int) "five schemes" 5 (row_count t);
  let out = Util.Tables.render t in
  List.iter
    (fun s -> Alcotest.(check bool) (s ^ " present") true (Str_find.contains out s))
    [ "v-byte"; "gamma"; "delta"; "Golomb" ]

let test_signature_table () =
  let t = Core.Ablation.signature_table (Lazy.force ctx) in
  Alcotest.(check int) "three methods" 3 (row_count t);
  let out = Util.Tables.render t in
  Alcotest.(check bool) "inverted row" true (Str_find.contains out "inverted file");
  Alcotest.(check bool) "bit-sliced row" true (Str_find.contains out "bit-sliced")

(* A variant build writes its locators into a private dictionary: the
   DAAT study reads the prepared Mneme file through the shared one, and
   its rows must not depend on the threshold variants having been built
   (and deleted) before it. *)
let test_daat_after_variants () =
  let ctx = Core.Ablation.create ~scale:0.05 () in
  let before = Util.Tables.render (Core.Ablation.daat_table ctx) in
  ignore (Core.Ablation.threshold_table ctx);
  Alcotest.(check string) "daat rows after the threshold variants" before
    (Util.Tables.render (Core.Ablation.daat_table ctx))

let suite =
  [
    Alcotest.test_case "policy table" `Quick test_policy_table;
    Alcotest.test_case "medium pseg table" `Quick test_medium_pseg_table;
    Alcotest.test_case "threshold table" `Quick test_threshold_table;
    Alcotest.test_case "daat table" `Quick test_daat_table;
    Alcotest.test_case "update table" `Slow test_update_table;
    Alcotest.test_case "journal table" `Quick test_journal_table;
    Alcotest.test_case "btree cache table" `Quick test_btree_cache_table;
    Alcotest.test_case "compression table" `Quick test_compression_table;
    Alcotest.test_case "signature table" `Quick test_signature_table;
    Alcotest.test_case "daat rows do not depend on earlier variants" `Quick
      test_daat_after_variants;
  ]
