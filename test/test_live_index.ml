(* Dynamic index maintenance over both backends. *)

let both_backends f =
  let vfs = Vfs.create () in
  f (Core.Live_index.create_btree vfs ~file:"live.btree" ());
  let vfs = Vfs.create () in
  f (Core.Live_index.create_mneme vfs ~file:"live.mneme" ())

let docs_of_results rs = List.map (fun r -> r.Inquery.Ranking.doc) rs

let test_add_and_search () =
  both_backends (fun live ->
      let d0 = Core.Live_index.add_document live "persistent object store" in
      let d1 = Core.Live_index.add_document live "inverted file index" in
      let d2 = Core.Live_index.add_document live "object oriented database index" in
      Alcotest.(check (list int)) "ids sequential" [ 0; 1; 2 ] [ d0; d1; d2 ];
      Alcotest.(check int) "count" 3 (Core.Live_index.document_count live);
      let hits = docs_of_results (Core.Live_index.search live "object") in
      Alcotest.(check bool) "d0 found" true (List.mem d0 hits);
      Alcotest.(check bool) "d2 found" true (List.mem d2 hits);
      Alcotest.(check bool) "d1 not found" false (List.mem d1 hits))

let test_incremental_visibility () =
  both_backends (fun live ->
      ignore (Core.Live_index.add_document live "alpha beta");
      Alcotest.(check int) "not yet visible" 0
        (List.length (Core.Live_index.search live "gamma"));
      let d = Core.Live_index.add_document live "gamma delta" in
      Alcotest.(check (list int)) "immediately searchable" [ d ]
        (docs_of_results (Core.Live_index.search live "gamma")))

let test_record_growth_across_documents () =
  both_backends (fun live ->
      for _ = 1 to 30 do
        ignore (Core.Live_index.add_document live "grow grow grow common")
      done;
      match Core.Live_index.term_record live "grow" with
      | None -> Alcotest.fail "record missing"
      | Some record ->
        let df, cf = Inquery.Postings.stats record in
        Alcotest.(check int) "df" 30 df;
        Alcotest.(check int) "cf" 90 cf)

let test_delete_document () =
  both_backends (fun live ->
      let d0 = Core.Live_index.add_document live "shared unique0" in
      let d1 = Core.Live_index.add_document live "shared unique1" in
      Alcotest.(check bool) "deleted" true (Core.Live_index.delete_document live d0);
      Alcotest.(check bool) "again false" false (Core.Live_index.delete_document live d0);
      Alcotest.(check int) "count" 1 (Core.Live_index.document_count live);
      Alcotest.(check bool) "gone from index" false
        (List.mem d0 (docs_of_results (Core.Live_index.search live "shared")));
      Alcotest.(check bool) "survivor intact" true
        (List.mem d1 (docs_of_results (Core.Live_index.search live "shared")));
      (* unique0's record disappeared entirely *)
      Alcotest.(check bool) "singleton record dropped" true
        (Core.Live_index.term_record live "unique0" = None);
      match Core.Live_index.term_record live "shared" with
      | Some record -> Alcotest.(check int) "df adjusted" 1 (fst (Inquery.Postings.stats record))
      | None -> Alcotest.fail "shared record lost")

let test_delete_then_add () =
  both_backends (fun live ->
      let d0 = Core.Live_index.add_document live "cycle word" in
      ignore (Core.Live_index.delete_document live d0);
      let d1 = Core.Live_index.add_document live "cycle word again" in
      Alcotest.(check bool) "new id" true (d1 > d0);
      Alcotest.(check (list int)) "only new doc" [ d1 ]
        (docs_of_results (Core.Live_index.search live "cycle")))

let test_explicit_doc_ids () =
  both_backends (fun live ->
      let d = Core.Live_index.add_document live ~doc_id:100 "explicit" in
      Alcotest.(check int) "honored" 100 d;
      Alcotest.(check bool) "monotone enforced" true
        (match Core.Live_index.add_document live ~doc_id:50 "late" with
        | _ -> false
        | exception Invalid_argument _ -> true);
      let d' = Core.Live_index.add_document live "implicit" in
      Alcotest.(check int) "continues past" 101 d')

let test_pool_migration_small_to_medium () =
  (* A term appearing once has a tiny record in the small pool; more
     occurrences push it over 12 bytes and it must migrate. *)
  let vfs = Vfs.create () in
  let live = Core.Live_index.create_mneme vfs ~file:"mig.mneme" () in
  ignore (Core.Live_index.add_document live "rare");
  (match Core.Live_index.term_record live "rare" with
  | Some r -> Alcotest.(check bool) "starts small" true (Bytes.length r <= 12)
  | None -> Alcotest.fail "missing");
  for _ = 1 to 20 do
    ignore (Core.Live_index.add_document live "rare rare rare")
  done;
  match Core.Live_index.term_record live "rare" with
  | Some r ->
    Alcotest.(check bool) "grew beyond small" true (Bytes.length r > 12);
    let df, _ = Inquery.Postings.stats r in
    Alcotest.(check int) "df correct after migration" 21 df
  | None -> Alcotest.fail "lost in migration"

let test_space_accounting () =
  let vfs = Vfs.create () in
  let live = Core.Live_index.create_mneme vfs ~file:"sp.mneme" () in
  for _ = 1 to 20 do
    ignore (Core.Live_index.add_document live "waste waste filler words here")
  done;
  (* Flush so the records live in on-disk segments; subsequent growth
     must then relocate objects, stranding their old extents — the
     paper's space-management problem. *)
  Core.Live_index.flush live;
  for _ = 1 to 20 do
    ignore (Core.Live_index.add_document live "waste waste filler words here")
  done;
  let s = Core.Live_index.space live in
  Alcotest.(check bool) "file grew" true (s.Core.Live_index.file_bytes > 0);
  Alcotest.(check bool) "stranded bytes observed" true (s.Core.Live_index.reclaimable_bytes > 0)

let test_stopwords_and_stemming () =
  let vfs = Vfs.create () in
  let live =
    Core.Live_index.create_btree ~stopwords:Inquery.Stopwords.default ~stem:true vfs
      ~file:"st.btree" ()
  in
  let d = Core.Live_index.add_document live "the running of the indexes" in
  Alcotest.(check bool) "stopword not indexed" true
    (Core.Live_index.term_record live "the" = None);
  Alcotest.(check (list int)) "stemmed query matches" [ d ]
    (docs_of_results (Core.Live_index.search live "index"));
  Alcotest.(check (list int)) "morphological variant matches" [ d ]
    (docs_of_results (Core.Live_index.search live "runs"))

(* Each pool's buffer capacity, by pool name. *)
let capacities live =
  let store = Option.get (Core.Live_index.mneme_store live) in
  List.map
    (fun pool ->
      ( Mneme.Store.pool_name pool,
        Mneme.Buffer_pool.capacity (Option.get (Mneme.Store.buffer pool)) ))
    (Mneme.Store.pools store)

(* [f ~oid ~pool ~pseg] over every object the store holds. *)
let iter_objects store f =
  List.iter
    (fun pool ->
      List.iter
        (fun (lseg, slots) ->
          Array.iteri
            (fun slot pseg -> if pseg >= 0 then f ~oid:(Mneme.Oid.make ~lseg ~slot) ~pool ~pseg)
            slots)
        (Mneme.Store.pool_slot_tables pool))
    (Mneme.Store.pools store)

let object_bytes store =
  let n = ref 0 in
  iter_objects store (fun ~oid ~pool:_ ~pseg:_ ->
      n := !n + Option.get (Mneme.Store.object_size store oid));
  !n

let test_wrap_prepared_collection () =
  (* Adopt an index built by the batch pipeline and keep editing it. *)
  let model =
    Collections.Docmodel.make ~name:"wrap" ~n_docs:150 ~core_vocab:400 ~mean_doc_len:30.0
      ~seed:3 ()
  in
  let prepared = Core.Experiment.prepare model in
  let doc_lengths =
    List.init model.Collections.Docmodel.n_docs (fun d ->
        (d, Inquery.Indexer.doc_length prepared.Core.Experiment.indexer d))
  in
  let store = Mneme.Store.open_existing prepared.Core.Experiment.vfs "wrap.mneme" in
  List.iter
    (fun name ->
      Mneme.Store.attach_buffer (Mneme.Store.pool store name)
        (Mneme.Buffer_pool.create ~name ~capacity:200_000 ()))
    [ "small"; "medium"; "large" ];
  let live =
    Core.Live_index.wrap_mneme prepared.Core.Experiment.vfs ~store
      ~dict:prepared.Core.Experiment.dict ~doc_lengths
  in
  Alcotest.(check int) "adopted count" 150 (Core.Live_index.document_count live);
  let d = Core.Live_index.add_document live "freshdocumentword ba" in
  Alcotest.(check (list int)) "new doc searchable" [ d ]
    (docs_of_results (Core.Live_index.search live "freshdocumentword"));
  (* An old frequent term gained the new document. *)
  (match Core.Live_index.term_record live "ba" with
  | Some record ->
    let found = ref false in
    Inquery.Postings.fold_docs record ~init:() ~f:(fun () ~doc ~tf:_ ->
        if doc = d then found := true);
    Alcotest.(check bool) "merged into existing record" true !found
  | None -> Alcotest.fail "ba record missing");
  (* The wrapped store's buffers are the caller's and stay fixed. *)
  Alcotest.(check (list (pair string int)))
    "capacities unchanged"
    [ ("small", 200_000); ("medium", 200_000); ("large", 200_000) ]
    (capacities live);
  (* The addition chained a chunk onto "ba"'s adopted record; deleting
     the new document rewrites "ba" whole, retiring both.  gc reclaims
     the adopted record, censused without a size: the store still reads
     it, so wasted bytes grow by exactly the bytes that left.  The flush
     first writes out the addition's objects: an object deleted from a
     still-open segment strands no bytes. *)
  Alcotest.(check int) "ba is a two-chunk chain" 2
    (List.length (List.assoc "ba" (Core.Live_index.chains live)));
  Core.Live_index.flush live;
  Alcotest.(check bool) "the new document deleted" true (Core.Live_index.delete_document live d);
  Alcotest.(check int) "ba is one record again" 1
    (List.length (List.assoc "ba" (Core.Live_index.chains live)));
  let held = object_bytes store and wasted = Mneme.Store.wasted_bytes store in
  let stats = Core.Live_index.gc live in
  Alcotest.(check bool) "an adopted record reclaimed" true (stats.Mneme.Epoch.reclaimed_objects > 0);
  Alcotest.(check int) "wasted bytes exact" (held - object_bytes store)
    (Mneme.Store.wasted_bytes store - wasted)

let test_flush_and_reopen_mneme () =
  let vfs = Vfs.create () in
  let live = Core.Live_index.create_mneme vfs ~file:"fl.mneme" () in
  ignore (Core.Live_index.add_document live "durable words");
  Core.Live_index.flush live;
  let store = Mneme.Store.open_existing vfs "fl.mneme" in
  Alcotest.(check bool) "objects persisted" true (Mneme.Store.object_count store > 0)

(* --- the sealed root chain ---------------------------------------- *)

(* The root fixture: five documents and seven publications.  The fifth
   publication seals a fresh base (the chain would have grown to five
   parts), and the two after it seal deltas, so the header names the
   third part of a chain [base; delta; delta].  "beta" and "zeta" occur
   ten times a document, so their chunks are objects; every other
   record is at most 12 bytes and rides inline. *)
type root_fixture = {
  rf_vfs : Vfs.t;
  rf_live : Core.Live_index.t;
  rf_base : bytes; (* the base part's payload as published *)
  rf_base_dir : string list; (* the terms it holds *)
  rf_parts : int list; (* the final chain, base first *)
}

let rf_file = "mr.mneme"

let payload_of store oid =
  match Mneme.Epoch.unseal (Mneme.Store.get store oid) with
  | Ok (_, p) -> p
  | Error e -> Alcotest.fail e

let ten word = String.concat " " (List.init 10 (fun _ -> word))

let root_fixture () =
  let vfs = Vfs.create () in
  let live = Core.Live_index.create_mneme vfs ~file:rf_file () in
  List.iter
    (fun text -> ignore (Core.Live_index.add_document live text))
    [ "alpha alphabet " ^ ten "beta"; "alpha beta gamma"; ten "zeta" ^ " 42 alphabets" ];
  ignore (Core.Live_index.delete_document live 1);
  (* The deletion rewrote "alpha" and "beta" whole; one more document
     makes "beta" and "zeta" two-chunk chains. *)
  let terms, len = Core.Live_index.tokenize live (ten "zeta" ^ " " ^ ten "beta") in
  Core.Live_index.fold_batch live ~meta:[ ("key", "value") ]
    ~docs:[ (3, len) ]
    ~postings:(List.map (fun (term, ps) -> (term, Inquery.Postings.encode [ (3, ps) ])) terms)
    ~deletes:[] ();
  let store = Option.get (Core.Live_index.mneme_store live) in
  let base = List.hd (Core.Live_index.root_parts live) in
  Alcotest.(check (list int)) "the fifth publication seals a base" [ base ]
    (Core.Live_index.root_parts live);
  let rf_base = payload_of store base in
  let rf_base_dir = List.map (fun (term, _, _) -> term) (Core.Live_index.directory live) in
  (* A delta that extends "alpha" by an inline chunk and adds a term,
     and one that removes a document, rewrites "alpha" and "beta" and
     tombstones the one term only it held. *)
  ignore (Core.Live_index.add_document live "alpha omega");
  ignore (Core.Live_index.delete_document live 0);
  Core.Live_index.flush live;
  { rf_vfs = vfs; rf_live = live; rf_base; rf_base_dir; rf_parts = Core.Live_index.root_parts live }

(* Open a copy of the fixture's store in which each [(oid, payload,
   epoch)] of [reseal] replaces that object's contents, sealed for
   [epoch] (default the header's): "opened", "Corrupt: <why>", or
   whatever else was raised. *)
let open_resealed rf reseal =
  let img = Vfs.create () in
  Vfs.copy_file rf.rf_vfs rf_file ~into:img;
  let store = Mneme.Store.open_existing img rf_file in
  List.iter
    (fun name ->
      Mneme.Store.attach_buffer (Mneme.Store.pool store name)
        (Mneme.Buffer_pool.create ~name ~capacity:0 ()))
    [ "small"; "medium"; "large" ];
  List.iter
    (fun (oid, payload, epoch) ->
      let epoch = Option.value epoch ~default:(Mneme.Store.epoch store) in
      Mneme.Store.modify store oid (Mneme.Epoch.seal ~epoch payload))
    reseal;
  Mneme.Store.finalize store;
  match Core.Live_index.open_mneme img ~file:rf_file () with
  | _ -> "opened"
  | exception Mneme.Store.Corrupt why -> "Corrupt: " ^ why
  | exception e -> Printexc.to_string e

let root_of rf = List.nth rf.rf_parts (List.length rf.rf_parts - 1)

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* The header's root resealed to hold [payload]. *)
let open_root rf payload = open_resealed rf [ (root_of rf, payload, None) ]

let count_bits = 3

(* One chunk as a part lists it: an object's oid shifted left by one,
   or an inline chunk's length shifted left by one and or-ed with 1,
   then its bytes. *)
let put_chunk b = function
  | Core.Live_index.Object oid -> Util.Varint.encode b (oid lsl 1)
  | Core.Live_index.Inline s ->
    Util.Varint.encode b ((String.length s lsl 1) lor 1);
    Buffer.add_string b s

let chunk_bytes chunks =
  let b = Buffer.create 16 in
  List.iter (put_chunk b) chunks;
  Buffer.to_bytes b

(* A part's payload written from its fields, independently of the
   library's encoder: the earlier parts, next-doc, total length, the
   added documents with their lengths and the removed ones, each term's
   entry front-coded in the order given — [`Whole (chunks, df, cf)],
   [`Extend (appended chunks, df, cf)] or [`Tomb] — and the metadata. *)
let part ~earlier ~next_doc ~total ?(added = []) ?(removed = []) ~entries ~meta () =
  let b = Buffer.create 256 in
  let gaps f docs =
    Util.Bin.buf_u32 b (List.length docs);
    ignore
      (List.fold_left
         (fun prev d ->
           Util.Varint.encode b (fst d - prev);
           f d;
           fst d)
         (-1) docs)
  in
  Util.Varint.encode b (List.length earlier);
  List.iter (Util.Varint.encode b) earlier;
  Util.Bin.buf_u32 b next_doc;
  Util.Bin.buf_u64 b total;
  gaps (fun (_, len) -> Util.Varint.encode b len) added;
  gaps ignore (List.map (fun d -> (d, ())) removed);
  Util.Bin.buf_u32 b (List.length entries);
  ignore
    (List.fold_left
       (fun prev (term, entry) ->
         let n = min (String.length prev) (String.length term) in
         let rec shared i = if i < n && prev.[i] = term.[i] then shared (i + 1) else i in
         let shared = shared 0 in
         let chunks, stats, extension =
           match entry with
           | `Whole (c, df, cf) -> (c, [ df; cf ], 0)
           | `Extend (c, df, cf) -> (c, [ df; cf ], 1)
           | `Tomb -> ([], [], 0)
         in
         Util.Varint.encode b ((shared lsl count_bits) lor List.length chunks);
         Util.Varint.encode b (((String.length term - shared) lsl 1) lor extension);
         Buffer.add_substring b term shared (String.length term - shared);
         List.iter (put_chunk b) chunks;
         List.iter (Util.Varint.encode b) stats;
         term)
       "" entries);
  Util.Bin.buf_u32 b (List.length meta);
  List.iter
    (fun (k, v) ->
      Util.Bin.buf_string b k;
      Util.Bin.buf_string b v)
    meta;
  Buffer.to_bytes b

(* A one-document inline chunk. *)
let inline doc positions =
  Core.Live_index.Inline (Bytes.to_string (Inquery.Postings.encode [ (doc, positions) ]))

(* A one-document record of exactly [n] bytes: its positions are 0, 1,
   2, ..., each a one-byte gap. *)
let record_of_length ?(doc = 9) n =
  let rec go k =
    if k > 64 then Alcotest.failf "no one-document record of %d bytes" n
    else
      let r = Inquery.Postings.encode [ (doc, List.init k Fun.id) ] in
      if Bytes.length r = n then r else go (k + 1)
  in
  go 1

(* Every malformed base is [Mneme.Store.Corrupt] and nothing else.  Each
   variant is resealed under the published epoch, so the envelope's CRC
   passes and only the payload decoder can object. *)
let test_malformed_bases_are_corrupt () =
  let rf = root_fixture () in
  let payload = rf.rf_base in
  let corrupt ?(why = "") what variant =
    let got = open_root rf variant in
    if not (String.starts_with ~prefix:"Corrupt" got && contains got why) then
      Alcotest.failf "%s: expected Corrupt for %S, got %s" what why got
  in
  (* Walk the layout: each document's (offset, gap), then each term
     entry's offset, shared prefix and suffix length, and its chunks with
     their offset and byte length.  A base lists no earlier part (one
     varint byte) and no removed document; the shared-prefix varint
     holds the chunk count in its low [count_bits] bits, and the suffix
     length's low bit is clear (no extension). *)
  let pos = ref 17 in
  let docs =
    Array.init (Util.Bin.get_u32 payload 13) (fun _ ->
        let at = !pos in
        let gap = Util.Varint.read payload pos in
        ignore (Util.Varint.read payload pos);
        (at, gap))
  in
  Alcotest.(check int) "a base removes no document" 0 (Util.Bin.get_u32 payload !pos);
  let n_terms = Util.Bin.get_u32 payload (!pos + 4) in
  pos := !pos + 8;
  let terms =
    Array.init n_terms (fun _ ->
        let at = !pos in
        let head = Util.Varint.read payload pos in
        let suffix = Util.Varint.read payload pos lsr 1 in
        pos := !pos + suffix;
        let chunks_at = !pos in
        let chunks =
          List.init (head land ((1 lsl count_bits) - 1)) (fun _ ->
              let v = Util.Varint.read payload pos in
              if v land 1 = 0 then Core.Live_index.Object (v lsr 1)
              else begin
                let s = Bytes.sub_string payload !pos (v lsr 1) in
                pos := !pos + (v lsr 1);
                Core.Live_index.Inline s
              end)
        in
        let chunks_len = !pos - chunks_at in
        for _ = 1 to 2 do
          ignore (Util.Varint.read payload pos)
        done;
        (at, head lsr count_bits, suffix, (chunks_at, chunks, chunks_len)))
  in
  (* The payload with the [len] bytes at [at] replaced by [by]. *)
  let splice at ~len by =
    let tail = at + len in
    Bytes.concat Bytes.empty
      [ Bytes.sub payload 0 at; by; Bytes.sub payload tail (Bytes.length payload - tail) ]
  in
  let regap i gap =
    let at, old = docs.(i) in
    splice at ~len:(Util.Varint.encoded_size old) (Util.Varint.encode_list [ gap ])
  in
  let head ~shared ~count = (shared lsl count_bits) lor count in
  let recode ?(extension = 0) i ~shared ~suffix =
    let at, s, n, (_, chunks, _) = terms.(i) in
    let count = List.length chunks in
    splice at
      ~len:
        (Util.Varint.encoded_size (head ~shared:s ~count) + Util.Varint.encoded_size (n lsl 1) + n)
      (Bytes.cat
         (Util.Varint.encode_list
            [ head ~shared ~count; (String.length suffix lsl 1) lor extension ])
         (Bytes.of_string suffix))
  in
  (* Term [i]'s entry with [count] in its head and [chunks] for its
     chain. *)
  let rechain i ~count chunks =
    let at, s, n, (chunks_at, old, chunks_len) = terms.(i) in
    let old_head = head ~shared:s ~count:(List.length old) in
    let entry =
      Bytes.concat Bytes.empty
        [
          Util.Varint.encode_list [ head ~shared:s ~count; n lsl 1 ];
          Bytes.sub payload
            (at + Util.Varint.encoded_size old_head + Util.Varint.encoded_size (n lsl 1))
            n;
          chunk_bytes chunks;
        ]
    in
    splice at ~len:(chunks_at + chunks_len - at) entry
  in
  let chunks i =
    let _, _, _, (_, c, _) = terms.(i) in
    c
  in
  Alcotest.(check (list string))
    "the directory the variants start from"
    [ "42"; "alpha"; "alphabet"; "alphabets"; "beta"; "zeta" ]
    rf.rf_base_dir;
  Alcotest.(check string) "the base alone opens" "opened" (open_root rf payload);
  for n = 0 to Bytes.length payload - 1 do
    corrupt (Printf.sprintf "truncated to %d bytes" n) (Bytes.sub payload 0 n)
  done;
  (* Documents 0, 2 and 3 survive; a zero gap repeats document 0. *)
  corrupt "a repeated document id" (regap 1 0);
  (* Term 2 is "alphabet", front-coded against "alpha". *)
  corrupt "a shared prefix longer than the previous term" (recode 2 ~shared:6 ~suffix:"bet");
  corrupt "a shared prefix shorter than the common one" (recode 2 ~shared:0 ~suffix:"alphabet");
  (* The last term, "zeta", follows "beta": no later entry is front-coded
     against it, so only the order check can object. *)
  corrupt "a repeated term" (recode 5 ~shared:4 ~suffix:"");
  corrupt "a term before the previous one" (recode 5 ~shared:0 ~suffix:"44");
  corrupt "one trailing byte" (Bytes.cat payload (Bytes.make 1 '\000'));
  (* Term 4 is "beta", a chain of two objects; term 1, "alpha", is one
     inline chunk. *)
  Alcotest.(check int) "the chain the variants start from" 2 (List.length (chunks 4));
  let first = List.hd (chunks 4) in
  let obj = function Core.Live_index.Object oid -> oid | Core.Live_index.Inline _ -> -1 in
  Alcotest.(check bool) "beta's chunks are objects" true
    (List.for_all (fun c -> obj c >= 0) (chunks 4 @ chunks 5));
  Alcotest.(check bool) "alpha is inline" true (obj (List.hd (chunks 1)) < 0);
  Alcotest.(check string) "the chain rewritten as it was opens" "opened"
    (open_root rf (rechain 4 ~count:2 (chunks 4)));
  corrupt "a tombstone in a base" (rechain 4 ~count:0 []);
  corrupt "a chain past the bound"
    (rechain 4 ~count:5
       (chunks 4 @ List.map (fun oid -> Core.Live_index.Object oid) [ 1001; 1002; 1003 ]));
  corrupt "a chunk oid repeated in one chain" (rechain 4 ~count:2 [ first; first ]);
  corrupt "a chunk oid another term names"
    (rechain 4 ~count:2 (List.hd (chunks 5) :: List.tl (chunks 4)));
  corrupt "the root's oid as a chunk"
    (rechain 4 ~count:2 [ first; Core.Live_index.Object (root_of rf) ]);
  corrupt "a truncated chunk list" (rechain 4 ~count:2 [ first ]);
  corrupt "an extension in a base" ~why:"extends a chain in a base"
    (recode ~extension:1 5 ~shared:0 ~suffix:"zeta");
  corrupt "an inline chunk of 0 bytes" ~why:"holds an empty inline chunk"
    (rechain 1 ~count:1 [ Core.Live_index.Inline "" ])

(* Every rule of the chain's canonical form, one case each: the case
   must fail with that rule's own reason, so dropping any one rule from
   the decoder fails it. *)
let test_malformed_chains_are_corrupt () =
  let rf = root_fixture () in
  let live = rf.rf_live in
  let store = Option.get (Core.Live_index.mneme_store live) in
  let base, delta, root =
    match rf.rf_parts with
    | [ b; d; r ] -> (b, d, r)
    | parts -> Alcotest.failf "a chain of %d parts" (List.length parts)
  in
  let chains = Core.Live_index.chains live and dir = Core.Live_index.directory live in
  let stats term =
    let _, df, cf = List.find (fun (t, _, _) -> t = term) dir in
    (df, cf)
  in
  let entry term =
    let df, cf = stats term in
    `Whole (List.assoc term chains, df, cf)
  in
  (* The last delta deleted document 0, "alpha alphabet beta ...":
     "alpha" (now one inline chunk) and "beta" were rewritten and
     "alphabet", which only it held, is a tombstone. *)
  let delta_part ?(earlier = [ base; delta ]) ?(added = []) ?(removed = [ 0 ]) ?entries () =
    let entries =
      Option.value entries
        ~default:[ ("alpha", entry "alpha"); ("alphabet", `Tomb); ("beta", entry "beta") ]
    in
    part ~earlier ~next_doc:(Core.Live_index.next_doc live)
      ~total:(Core.Live_index.latest live).Core.Live_index.total_len ~added ~removed ~entries
      ~meta:(Core.Live_index.meta live) ()
  in
  (match List.assoc "alpha" chains with
  | [ Core.Live_index.Inline _ ] -> ()
  | _ -> Alcotest.fail "alpha is not one inline chunk");
  Alcotest.(check bool) "the published delta is the part written from its fields" true
    (Bytes.equal (payload_of store root) (delta_part ()));
  (* The delta before it added document 4, "alpha omega": it extended
     "alpha" by one inline chunk and added "omega" whole.  Document 0,
     which the last delta removed, is 12 words long. *)
  Alcotest.(check bool) "the extending delta is the part written from its fields" true
    (Bytes.equal (payload_of store delta)
       (part ~earlier:[ base ] ~next_doc:5
          ~total:((Core.Live_index.latest live).Core.Live_index.total_len + 12)
          ~added:[ (4, 2) ]
          ~entries:
            [
              ("alpha", `Extend ([ inline 4 [ 0 ] ], 2, 2));
              ("omega", `Whole ([ inline 4 [ 1 ] ], 1, 1));
            ]
          ~meta:(Core.Live_index.meta live) ()));
  Alcotest.(check string) "the chain opens" "opened" (open_root rf (delta_part ()));
  let corrupt what ~why reseal =
    let got = open_resealed rf reseal in
    if not (String.starts_with ~prefix:"Corrupt" got && contains got why) then
      Alcotest.failf "%s: expected Corrupt for %S, got %s" what why got
  in
  let corrupt_root what ~why payload = corrupt what ~why [ (root, payload, None) ] in
  (* The last delta with one more entry, for a term after "beta". *)
  let plus extra =
    delta_part
      ~entries:[ ("alpha", entry "alpha"); ("alphabet", `Tomb); ("beta", entry "beta"); extra ]
      ()
  in
  corrupt_root "an entry the earlier parts already give" ~why:"repeats an entry"
    (plus ("zeta", entry "zeta"));
  corrupt_root "a tombstone for a term the earlier parts lack" ~why:"tombstones a term"
    (plus ("gamma", `Tomb));
  (* "zeta" is a chain of two objects, df 2 and cf 20. *)
  let zeta = List.assoc "zeta" chains in
  Alcotest.(check (pair int int)) "zeta's statistics" (2, 20) (stats "zeta");
  Alcotest.(check string) "zeta extended by an inline chunk opens" "opened"
    (open_root rf (plus ("zeta", `Extend ([ inline 9 [ 0 ] ], 3, 21))));
  corrupt_root "an extension of a term the earlier parts lack"
    ~why:"extends a term the earlier parts lack"
    (plus ("gamma", `Extend ([ inline 9 [ 0 ] ], 1, 1)));
  corrupt_root "an extension that appends nothing" ~why:"extends a chain by no chunk"
    (plus ("zeta", `Extend ([], 2, 20)));
  corrupt_root "inline chunks whose documents do not ascend"
    ~why:"holds inline chunks whose documents overlap"
    (plus ("zeta", `Extend ([ inline 9 [ 0 ]; inline 8 [ 0 ] ], 4, 22)));
  corrupt_root "an extension past the bound" ~why:"extends a chain to 5 chunks"
    (plus ("zeta", `Extend ([ inline 9 [ 0 ]; inline 10 [ 0 ]; inline 11 [ 0 ] ], 5, 23)));
  corrupt_root "a whole entry that extends the earlier chain"
    ~why:"lists whole a chain that extends the earlier one"
    (plus ("zeta", `Whole (zeta @ [ inline 9 [ 0 ] ], 3, 21)));
  let bound = 12 in
  corrupt_root "an inline chunk over the bound"
    ~why:(Printf.sprintf "holds an inline chunk of %d bytes" (bound + 1))
    (plus
       ( "zeta",
         `Extend
           ([ Core.Live_index.Inline (Bytes.to_string (record_of_length (bound + 1))) ], 3, 21) ));
  Alcotest.(check bool) "the bytes the next case inlines are no record" true
    (Result.is_error (Inquery.Postings.validate (Bytes.of_string "\255")));
  corrupt_root "an inline chunk that is no postings record" ~why:"not a postings record"
    (plus ("zeta", `Extend ([ Core.Live_index.Inline "\255" ], 3, 21)));
  corrupt_root "an empty inline chunk" ~why:"holds an empty inline chunk"
    (plus ("zeta", `Extend ([ Core.Live_index.Inline "" ], 3, 21)));
  corrupt_root "an added document already present" ~why:"adds a document already present"
    (delta_part ~added:[ (2, 3) ] ());
  corrupt_root "a removed document that is absent" ~why:"removes a document that is absent"
    (delta_part ~removed:[ 0; 1 ] ());
  corrupt_root "parts out of order" ~why:"own part list is not the chain before it"
    (delta_part ~earlier:[ delta; base ] ());
  corrupt "part epochs that do not ascend" ~why:"epochs do not ascend"
    [ (delta, payload_of store delta, Some (Mneme.Store.epoch store - 2)) ];
  corrupt "a part sealed at the root's epoch" ~why:"epochs do not ascend"
    [ (delta, payload_of store delta, None) ];
  corrupt_root "five parts" ~why:"lists 4 earlier parts"
    (delta_part ~earlier:[ base; delta; 1001; 1002 ] ());
  corrupt_root "a part's oid as a chunk" ~why:"names an oid twice"
    (delta_part
       ~entries:
         [
           ( "alpha",
             let df, cf = stats "alpha" in
             `Whole ([ Core.Live_index.Object base ], df, cf) );
           ("alphabet", `Tomb);
           ("beta", entry "beta");
         ]
       ());
  corrupt_root "the root's oid as a part" ~why:"lists its own oid as a part"
    (delta_part ~earlier:[ base; delta; root ] ());
  let zeta_oid = match zeta with Core.Live_index.Object oid :: _ -> oid | _ -> assert false in
  corrupt_root "a chunk as a part" ~why:"root part" (delta_part ~earlier:[ base; zeta_oid ] ());
  corrupt_root "a part that resolves to no object" ~why:"resolves to no object"
    (delta_part ~earlier:[ base; 1_000_000 ] ());
  Alcotest.(check string) "the chain still opens" "opened" (open_root rf (delta_part ()));
  (* The audit decodes the chain on disk against the published snapshot:
     a root that no longer removes document 0 still decodes, to another
     directory. *)
  Alcotest.(check (list (pair string string))) "the audit is clean" [] (Core.Live_index.audit live);
  Mneme.Store.modify store root
    (Mneme.Epoch.seal ~epoch:(Mneme.Store.epoch store) (delta_part ~removed:[] ()));
  Alcotest.(check (list string))
    "the audit finds the chain on disk changed" [ "root" ]
    (List.map fst (Core.Live_index.audit live))

(* A delta goes to its base's pool: a base over 4 KB is in the large
   pool, and a one-word delta follows it there rather than into the
   medium pool among the records. *)
let test_deltas_follow_their_base () =
  let live = Core.Live_index.create_mneme (Vfs.create ()) ~file:"dp.mneme" () in
  ignore
    (Core.Live_index.add_document live
       (String.concat " " (List.init 600 (fun i -> Printf.sprintf "term%d" i))));
  ignore (Core.Live_index.add_document live "term1");
  let store = Option.get (Core.Live_index.mneme_store live) in
  let pool oid = Mneme.Store.pool_name (Option.get (Mneme.Store.pool_of_oid store oid)) in
  let size oid = Option.get (Mneme.Store.object_size store oid) in
  match Core.Live_index.root_parts live with
  | [ base; delta ] ->
    Alcotest.(check bool) "a base over 4 KB" true (size base > 4096);
    Alcotest.(check bool) "a delta under 4 KB" true (size delta < 4096);
    Alcotest.(check (list string)) "both in the large pool" [ "large"; "large" ]
      [ pool base; pool delta ]
  | parts -> Alcotest.failf "a chain of %d parts" (List.length parts)

(* Whatever a root holds, opening it returns an index or raises
   [Mneme.Store.Corrupt]: arbitrary bytes, and truncations and 1-4-byte
   overwrites of the real base and delta payloads, each resealed under
   the header's epoch at the header's root. *)
let prop_root_decoder_total =
  let rf = lazy (root_fixture ()) in
  let payloads =
    lazy
      (let rf = Lazy.force rf in
       let store = Option.get (Core.Live_index.mneme_store rf.rf_live) in
       Array.of_list (List.map (payload_of store) rf.rf_parts))
  in
  let gen =
    let open QCheck.Gen in
    let real = map (fun i -> (Lazy.force payloads).(i)) (int_range 0 2) in
    frequency
      [
        (1, map Bytes.of_string (string_size (int_range 0 200)));
        ( 2,
          real >>= fun p ->
          map (fun n -> Bytes.sub p 0 (n mod (Bytes.length p + 1))) nat );
        ( 7,
          real >>= fun p ->
          map
            (fun writes ->
              let p = Bytes.copy p in
              List.iter
                (fun (at, c) -> Bytes.set p (at mod Bytes.length p) (Char.chr c))
                writes;
              p)
            (list_size (int_range 1 4) (pair nat (int_range 0 255))) );
      ]
  in
  QCheck.Test.make ~name:"the root decoder is total" ~count:10_000
    (QCheck.make ~print:(fun b -> String.escaped (Bytes.to_string b)) gen)
    (fun payload ->
      let got = open_root (Lazy.force rf) payload in
      got = "opened" || String.starts_with ~prefix:"Corrupt" got)

(* --- inline chunks ------------------------------------------------- *)

let kinds chain =
  List.map
    (function Core.Live_index.Object _ -> "object" | Core.Live_index.Inline _ -> "inline")
    chain

(* The same one-document batches folded into a Mneme index and its
   B-tree twin. *)
let fold_twins twins ~doc postings =
  List.iter
    (fun live -> Core.Live_index.fold_batch live ~docs:[ (doc, 1) ] ~postings ~deletes:[] ())
    twins

(* A fold whose additions are at most 12 bytes allocates no object for
   them, and reads them back as the B-tree stores them; a 13-byte
   addition is an object. *)
let test_tiny_chunks_ride_inline () =
  let mneme = Core.Live_index.create_mneme (Vfs.create ()) ~file:"in.mneme" () in
  let btree = Core.Live_index.create_btree (Vfs.create ()) ~file:"in.btree" () in
  let store = Option.get (Core.Live_index.mneme_store mneme) in
  let count name = Mneme.Store.pool_object_count (Mneme.Store.pool store name) in
  let tiny = Inquery.Postings.encode [ (0, [ 0 ]) ] and twelve = record_of_length ~doc:0 12 in
  Alcotest.(check bool) "a tiny record" true (Bytes.length tiny < 12);
  let small = count "small" in
  fold_twins [ mneme; btree ] ~doc:0 [ ("tiny", tiny); ("twelve", twelve) ];
  Alcotest.(check int) "no small-pool object" small (count "small");
  let chain term = List.assoc term (Core.Live_index.chains mneme) in
  Alcotest.(check (list (list string)))
    "both inline" [ [ "inline" ]; [ "inline" ] ]
    [ kinds (chain "tiny"); kinds (chain "twelve") ];
  let medium = count "medium" in
  fold_twins [ mneme; btree ] ~doc:1
    [ ("thirteen", record_of_length ~doc:1 13); ("tiny", Inquery.Postings.encode [ (1, [ 5 ]) ]) ];
  Alcotest.(check int) "still no small-pool object" small (count "small");
  (match chain "thirteen" with
  | [ Core.Live_index.Object oid ] ->
    Alcotest.(check (option int)) "a 13-byte object" (Some 13) (Mneme.Store.object_size store oid)
  | c -> Alcotest.failf "thirteen: %s" (String.concat "," (kinds c)));
  Alcotest.(check int) "the 13-byte chunk and the delta part are medium objects" (medium + 2)
    (count "medium");
  Alcotest.(check (list string)) "tiny is a chain of two inline chunks" [ "inline"; "inline" ]
    (kinds (chain "tiny"));
  List.iter
    (fun term ->
      Alcotest.(check (option bytes))
        (term ^ " as the B-tree stores it")
        (Core.Live_index.term_record btree term)
        (Core.Live_index.term_record mneme term))
    [ "tiny"; "twelve"; "thirteen" ];
  (* An inline record is read from the snapshot, with no I/O. *)
  let vfs = Mneme.Store.vfs store in
  let before = Vfs.counters vfs in
  ignore (Core.Live_index.term_record mneme "tiny");
  let io = Vfs.diff_counters ~later:(Vfs.counters vfs) ~earlier:before in
  Alcotest.(check (pair int int)) "no file access, no byte read" (0, 0)
    (io.Vfs.file_accesses, io.Vfs.bytes_read)

(* A batch that adds a document and deletes it again rewrites "echo"
   back to the inline record its published entry already names; the
   delta lists no entry for it (one equal to the published entry is
   not canonical), so the root reopens. *)
let test_batch_restoring_an_entry () =
  let vfs = Vfs.create () in
  let live = Core.Live_index.create_mneme ~journal:"re.log" vfs ~file:"re.mneme" () in
  ignore (Core.Live_index.add_document live "echo");
  let before = Core.Live_index.chains live in
  Core.Live_index.fold_batch live ~docs:[ (1, 1) ]
    ~postings:[ ("echo", Inquery.Postings.encode [ (1, [ 0 ]) ]) ]
    ~deletes:[ 1 ] ();
  Alcotest.(check bool) "echo's entry as published before" true
    (Core.Live_index.chains live = before);
  Alcotest.(check (list (pair string string))) "the audit is clean" [] (Core.Live_index.audit live);
  let re = Core.Live_index.open_mneme ~journal:"re.log" vfs ~file:"re.mneme" () in
  Alcotest.(check bool) "the reopened directory" true
    (Core.Live_index.directory re = Core.Live_index.directory live)

(* A full chain of inline and object chunks consolidates at the fifth
   touch into exactly the record the B-tree's rewrite stores. *)
let test_mixed_chain_consolidates () =
  let mneme = Core.Live_index.create_mneme (Vfs.create ()) ~file:"mx.mneme" () in
  let btree = Core.Live_index.create_btree (Vfs.create ()) ~file:"mx.btree" () in
  let addition doc =
    if doc mod 2 = 0 then Inquery.Postings.encode [ (doc, [ 0 ]) ] else record_of_length ~doc 20
  in
  for doc = 0 to 3 do
    fold_twins [ mneme; btree ] ~doc [ ("mix", addition doc) ]
  done;
  let chain () = List.assoc "mix" (Core.Live_index.chains mneme) in
  Alcotest.(check (list string)) "a full mixed chain" [ "inline"; "object"; "inline"; "object" ]
    (kinds (chain ()));
  fold_twins [ mneme; btree ] ~doc:4 [ ("mix", addition 4) ];
  Alcotest.(check int) "consolidated into one chunk" 1 (List.length (chain ()));
  let record = Core.Live_index.term_record mneme "mix" in
  Alcotest.(check (option bytes))
    "the record a rewrite stores"
    (Core.Live_index.term_record btree "mix")
    record;
  Alcotest.(check (option bytes)) "the five additions as one record"
    (Inquery.Postings.concat (List.init 5 addition))
    record;
  Alcotest.(check (list (pair string string))) "the audit is clean" [] (Core.Live_index.audit mneme)

(* An inline chunk is bytes of the snapshot that names it: a pin reads
   it with no I/O, after the base that first carried it has been
   retired and collected, and while its own base is retired and held
   for it. *)
let test_pin_reads_inline_after_its_base_is_collected () =
  let vfs = Vfs.create () in
  let live = Core.Live_index.create_mneme ~journal:"pi.log" vfs ~file:"pi.mneme" () in
  let store = Option.get (Core.Live_index.mneme_store live) in
  let add text = ignore (Core.Live_index.add_document live text) in
  add "solo";
  let first_base = List.hd (Core.Live_index.root_parts live) in
  let solo = Core.Live_index.term_record live "solo" in
  Alcotest.(check (list string)) "solo is inline" [ "inline" ]
    (kinds (List.assoc "solo" (Core.Live_index.chains live)));
  (* The fifth publication seals a fresh base, copying solo's chunk. *)
  for i = 1 to 4 do
    add (Printf.sprintf "filler%d" i)
  done;
  let pinned_base =
    match Core.Live_index.root_parts live with
    | [ b ] when b <> first_base -> b
    | _ -> Alcotest.fail "no fresh base"
  in
  let p = Core.Live_index.pin live in
  for i = 5 to 8 do
    add (Printf.sprintf "filler%d" i)
  done;
  Alcotest.(check bool) "the pinned base retired" true
    (not (List.mem pinned_base (Core.Live_index.root_parts live)));
  ignore (Core.Live_index.gc live);
  Alcotest.(check (pair bool bool))
    "the first base collected, the pinned one held" (false, true)
    (Mneme.Store.exists store first_base, Mneme.Store.exists store pinned_base);
  let before = Vfs.counters vfs in
  let read = Core.Live_index.record (Core.Live_index.pinned live p) "solo" in
  let io = Vfs.diff_counters ~later:(Vfs.counters vfs) ~earlier:before in
  Alcotest.(check (option bytes)) "the pin reads solo" solo read;
  Alcotest.(check (pair int int)) "with no file access" (0, 0)
    (io.Vfs.file_accesses, io.Vfs.bytes_read);
  Core.Live_index.release live p;
  ignore (Core.Live_index.gc live);
  Alcotest.(check bool) "the pinned base collected after the release" false
    (Mneme.Store.exists store pinned_base);
  Alcotest.(check (option bytes)) "the latest epoch reads solo" solo
    (Core.Live_index.term_record live "solo");
  Alcotest.(check (list (pair string string))) "the audit is clean" [] (Core.Live_index.audit live)

let test_backend_names () =
  both_backends (fun live ->
      Alcotest.(check bool) "name" true
        (List.mem (Core.Live_index.backend_name live) [ "btree"; "mneme" ]))

let test_avg_length_tracking () =
  both_backends (fun live ->
      ignore (Core.Live_index.add_document live "two words");
      ignore (Core.Live_index.add_document live "four words in here");
      Alcotest.(check (float 1e-9)) "avg" 3.0 (Core.Live_index.avg_doc_length live);
      ignore (Core.Live_index.delete_document live 0);
      Alcotest.(check (float 1e-9)) "after delete" 4.0 (Core.Live_index.avg_doc_length live))

let test_compact_live_index () =
  let vfs = Vfs.create () in
  let live = Core.Live_index.create_mneme vfs ~file:"cmp.mneme" () in
  for i = 0 to 29 do
    ignore (Core.Live_index.add_document live (Printf.sprintf "alpha beta doc%d words" i))
  done;
  Core.Live_index.flush live;
  for i = 30 to 59 do
    ignore (Core.Live_index.add_document live (Printf.sprintf "alpha beta doc%d words" i))
  done;
  for d = 0 to 9 do
    ignore (Core.Live_index.delete_document live d)
  done;
  Core.Live_index.flush live;
  let before = Core.Live_index.space live in
  Alcotest.(check bool) "stranded before" true (before.Core.Live_index.reclaimable_bytes > 0);
  Core.Live_index.compact live ~file:"cmp2.mneme";
  let after = Core.Live_index.space live in
  Alcotest.(check int) "reclaimed" 0 after.Core.Live_index.reclaimable_bytes;
  Alcotest.(check bool) "smaller file" true
    (after.Core.Live_index.file_bytes < before.Core.Live_index.file_bytes);
  (* The index keeps working, including further updates. *)
  let hits = docs_of_results (Core.Live_index.search ~top_k:100 live "alpha") in
  Alcotest.(check int) "surviving docs found" 50 (List.length hits);
  let d = Core.Live_index.add_document live "alpha fresh addition" in
  Alcotest.(check bool) "new doc searchable" true
    (List.mem d (docs_of_results (Core.Live_index.search ~top_k:200 live "fresh")))

(* --- one fetch per distinct query term ---------------------------- *)

(* With no buffer, every record fetch is a file access, so a term
   repeated in a query must cost what it costs once; the ranking is the
   evaluator's over the whole published directory, where each
   occurrence fetches its record. *)
let test_repeated_term_read_once () =
  let vfs = Vfs.create () in
  let live =
    Core.Live_index.create_mneme ~buffers:Core.Buffer_sizing.no_cache ~journal:"rt.log" vfs
      ~file:"rt.mneme" ()
  in
  (* Ten occurrences a document make every "alpha" and "beta" chunk an
     object, read from the store. *)
  List.iter
    (fun text -> ignore (Core.Live_index.add_document live text))
    [
      ten "alpha" ^ " " ^ ten "beta" ^ " gamma";
      ten "alpha" ^ " delta";
      ten "beta" ^ " epsilon";
      ten "alpha" ^ " " ^ ten "beta";
    ];
  let searched q =
    let before = Vfs.counters vfs in
    let ranked = Core.Live_index.search live q in
    (ranked, Vfs.diff_counters ~later:(Vfs.counters vfs) ~earlier:before)
  in
  let _, once = searched "#sum( alpha beta )" in
  let ranked, twice = searched "#sum( alpha alpha beta )" in
  (* Each document was its own fold, so "alpha" (documents 0, 1, 3) and
     "beta" (0, 2, 3) are three-chunk chains. *)
  let chunks term =
    let chain = List.assoc term (Core.Live_index.chains live) in
    if List.exists (function Core.Live_index.Inline _ -> true | _ -> false) chain then
      Alcotest.failf "%s has an inline chunk" term;
    List.length chain
  in
  Alcotest.(check (pair int int)) "three chunks each" (3, 3) (chunks "alpha", chunks "beta");
  Alcotest.(check int) "one file access per chunk of each distinct term"
    (chunks "alpha" + chunks "beta") twice.Vfs.file_accesses;
  Alcotest.(check int) "as many accesses as the query without the repeat"
    once.Vfs.file_accesses twice.Vfs.file_accesses;
  Alcotest.(check int) "as many bytes as the query without the repeat" once.Vfs.bytes_read
    twice.Vfs.bytes_read;
  let dict = Inquery.Dictionary.create () in
  List.iter
    (fun (term, df, cf) ->
      let e = Inquery.Dictionary.intern dict term in
      e.Inquery.Dictionary.df <- df;
      e.Inquery.Dictionary.cf <- cf)
    (Core.Live_index.directory live);
  let lengths = Core.Live_index.doc_lengths live in
  let source =
    {
      Inquery.Infnet.fetch = (fun e -> Core.Live_index.term_record live e.Inquery.Dictionary.term);
      n_docs = List.length lengths;
      max_doc_id = Core.Live_index.next_doc live - 1;
      avg_doc_len = Core.Live_index.avg_doc_length live;
      doc_len = (fun d -> List.assoc d lengths);
    }
  in
  let beliefs, _ =
    Inquery.Infnet.eval source dict (Inquery.Query.parse_exn "#sum( alpha alpha beta )")
  in
  Alcotest.(check bool) "the evaluator's ranking" true
    (ranked = Inquery.Ranking.top_k beliefs ~k:10)

(* --- pools sized to the published epoch ---------------------------- *)

(* The working set each pool should be sized to, censused from the store
   rather than the directory: after a gc with no pin outstanding, every
   object but the sealed root is a record the published directory names.
   Per pool, the summed length of the flushed segments holding one. *)
let working_set live =
  ignore (Core.Live_index.gc live);
  let store = Option.get (Core.Live_index.mneme_store live) in
  let held = Hashtbl.create 64 in
  iter_objects store (fun ~oid ~pool ~pseg ->
      if Some oid <> Mneme.Store.root store then
        Hashtbl.replace held (Mneme.Store.pool_name pool, pseg) ());
  List.map
    (fun pool ->
      let name = Mneme.Store.pool_name pool in
      ( name,
        List.fold_left
          (fun acc (pseg, (_, len)) -> if Hashtbl.mem held (name, pseg) then acc + len else acc)
          0 (Mneme.Store.pool_segments pool) ))
    (Mneme.Store.pools store)

(* Forty documents; "alpha" occurs 150 times in each, so its record
   outgrows the medium pool into the large one. *)
let add_sized_docs live =
  let alpha = String.concat " " (List.init 150 (fun _ -> "alpha")) in
  for i = 0 to 39 do
    ignore
      (Core.Live_index.add_document live
         (Printf.sprintf "%s beta gamma doc%d term%d words" alpha i (i mod 7)))
  done

let test_pools_sized_to_epoch () =
  let sized what live =
    Alcotest.(check (list (pair string int))) what (working_set live) (capacities live)
  in
  let vfs = Vfs.create () in
  let live = Core.Live_index.create_mneme ~journal:"ws.log" vfs ~file:"ws.mneme" () in
  Alcotest.(check (list (pair string int)))
    "an empty directory holds nothing"
    [ ("small", 0); ("medium", 0); ("large", 0) ]
    (capacities live);
  add_sized_docs live;
  sized "after adds" live;
  (* Every chunk of at most 12 bytes rides inline in the root, so the
     small pool holds no record. *)
  Alcotest.(check (list (pair string bool)))
    "every pool but the small one holds records"
    [ ("small", false); ("medium", true); ("large", true) ]
    (List.map (fun (pool, c) -> (pool, c > 0)) (capacities live));
  Core.Live_index.fold_batch live
    ~docs:[ (40, 3) ]
    ~postings:
      [
        ("alpha", Inquery.Postings.encode [ (40, [ 0 ]) ]);
        ("omega", Inquery.Postings.encode [ (40, [ 1; 2 ]) ]);
      ]
    ~deletes:[ 3; 4 ] ();
  sized "after a fold" live;
  ignore (Core.Live_index.delete_document live 7);
  sized "after a delete" live;
  let re = Core.Live_index.open_mneme ~journal:"ws.log" vfs ~file:"ws.mneme" () in
  sized "after open" re;
  (* Unjournaled, records can sit in open segments, which are read
     without the buffer and not counted. *)
  let live = Core.Live_index.create_mneme (Vfs.create ()) ~file:"wc.mneme" () in
  add_sized_docs live;
  sized "unjournaled" live;
  for d = 0 to 9 do
    ignore (Core.Live_index.delete_document live d)
  done;
  Core.Live_index.compact live ~file:"wc2.mneme";
  sized "after compact" live

let test_explicit_buffers_stay_fixed () =
  let buffers = { Core.Buffer_sizing.small = 1000; medium = 2000; large = 3000 } in
  let fixed what live =
    Alcotest.(check (list (pair string int)))
      what
      [ ("small", 1000); ("medium", 2000); ("large", 3000) ]
      (capacities live)
  in
  let vfs = Vfs.create () in
  let live = Core.Live_index.create_mneme ~buffers ~journal:"fx.log" vfs ~file:"fx.mneme" () in
  add_sized_docs live;
  Core.Live_index.fold_batch live ~docs:[ (40, 1) ]
    ~postings:[ ("omega", Inquery.Postings.encode [ (40, [ 0 ]) ]) ]
    ~deletes:[ 3 ] ();
  ignore (Core.Live_index.delete_document live 7);
  fixed "after adds, a fold and a delete" live;
  fixed "after open" (Core.Live_index.open_mneme ~buffers ~journal:"fx.log" vfs ~file:"fx.mneme" ());
  let live = Core.Live_index.create_mneme ~buffers (Vfs.create ()) ~file:"fxc.mneme" () in
  add_sized_docs live;
  Core.Live_index.compact live ~file:"fxc2.mneme";
  fixed "after compact" live

let test_compact_btree_rejected () =
  let vfs = Vfs.create () in
  let live = Core.Live_index.create_btree vfs ~file:"cb.btree" () in
  Alcotest.(check bool) "rejected" true
    (match Core.Live_index.compact live ~file:"out" with
    | () -> false
    | exception Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "add and search" `Quick test_add_and_search;
    Alcotest.test_case "incremental visibility" `Quick test_incremental_visibility;
    Alcotest.test_case "record growth" `Quick test_record_growth_across_documents;
    Alcotest.test_case "delete document" `Quick test_delete_document;
    Alcotest.test_case "delete then add" `Quick test_delete_then_add;
    Alcotest.test_case "explicit doc ids" `Quick test_explicit_doc_ids;
    Alcotest.test_case "pool migration" `Quick test_pool_migration_small_to_medium;
    Alcotest.test_case "space accounting" `Quick test_space_accounting;
    Alcotest.test_case "stopwords and stemming" `Quick test_stopwords_and_stemming;
    Alcotest.test_case "wrap prepared collection" `Quick test_wrap_prepared_collection;
    Alcotest.test_case "flush and reopen" `Quick test_flush_and_reopen_mneme;
    Alcotest.test_case "backend names" `Quick test_backend_names;
    Alcotest.test_case "avg length tracking" `Quick test_avg_length_tracking;
    Alcotest.test_case "compact live index" `Quick test_compact_live_index;
    Alcotest.test_case "compact btree rejected" `Quick test_compact_btree_rejected;
    Alcotest.test_case "malformed roots are Corrupt" `Quick test_malformed_bases_are_corrupt;
    Alcotest.test_case "malformed root chains are Corrupt" `Quick test_malformed_chains_are_corrupt;
    QCheck_alcotest.to_alcotest prop_root_decoder_total;
    Alcotest.test_case "a delta is sealed in its base's pool" `Quick test_deltas_follow_their_base;
    Alcotest.test_case "chunks of at most 12 bytes ride inline" `Quick test_tiny_chunks_ride_inline;
    Alcotest.test_case "a mixed chain consolidates into the rewrite's record" `Quick
      test_mixed_chain_consolidates;
    Alcotest.test_case "a batch that restores an inline entry reopens" `Quick
      test_batch_restoring_an_entry;
    Alcotest.test_case "a pin reads inline chunks after their base is collected" `Quick
      test_pin_reads_inline_after_its_base_is_collected;
    Alcotest.test_case "pools sized to the published epoch" `Quick test_pools_sized_to_epoch;
    Alcotest.test_case "explicit buffers stay fixed" `Quick test_explicit_buffers_stay_fixed;
    Alcotest.test_case "a repeated query term is read once" `Quick test_repeated_term_read_once;
  ]
