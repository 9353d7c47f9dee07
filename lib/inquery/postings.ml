type doc_postings = { doc : int; positions : int list }

(* ------------------------------------------------------------------ *)
(* Record versions.

   v1 (the original layout, still readable everywhere):
     [df] [cf] then per document: [doc gap] [tf] [tf position gaps].

   v2 (skip-block layout, what the encoder emits from v1_cutoff_df on):
     0x80 0x02                                  version sentinel
     [df] [cf] [max_tf] [n_blocks] [skip_len]   header
     skip table (skip_len bytes): per block
       [last-doc delta] [doc-region bytes] [pos-region bytes]
     [doc_len]                                  doc-region byte length
     doc region (doc_len bytes): per document [doc gap] [tf], gaps
       continuing across block boundaries
     pos region (to end of record): per document [tf position gaps]

   Every integer is v-byte coded: delta + v-byte is INQUERY's own
   compressed format.  Splitting (doc, tf) pairs from position gaps
   means document-level scans never touch position bytes, and the skip
   table lets a cursor jump whole blocks of both regions.

   Version sniffing: every byte is a valid v1 varint start, but a v1
   record beginning with 0x80 codes df = 0, which the v1 encoder only
   ever produced as the empty record [0x80 0x80] — whose second byte is
   0x80, never 0x02.  So the sentinel is unambiguous. *)
(* ------------------------------------------------------------------ *)

let block_size = 128

(* Below this document count the encoder keeps the v1 layout: the
   record is a handful of bytes, a skip table cannot pay for itself, and
   the paper's small-object distribution (half the records are tiny)
   stays intact.  Readers sniff versions, so the cutoff is invisible. *)
let v1_cutoff_df = 8

(* [Raw] and [Cold] name retired doc-region layouts (sentinel tags 0x03
   and 0x04): nothing writes them and [tier] never returns them. *)
type tier = V1 | Raw | Vbyte | Cold

let v2_tag0 = '\x80'
let tag_vbyte = '\x02'

let tier b =
  if Bytes.length b >= 2 && Bytes.get b 0 = v2_tag0 && Bytes.get b 1 = tag_vbyte then Vbyte
  else V1

let version b = if tier b = V1 then 1 else 2
let tier_of_df df = if df < v1_cutoff_df then V1 else Vbyte
let tier_name = function V1 -> "v1" | Raw -> "raw" | Vbyte -> "vbyte" | Cold -> "cold"

(* ------------------------------------------------------------------ *)
(* Encoders                                                            *)
(* ------------------------------------------------------------------ *)

let encode_v1 entries =
  let buf = Buffer.create 64 in
  let df = List.length entries in
  let cf = List.fold_left (fun acc (_, ps) -> acc + List.length ps) 0 entries in
  Util.Varint.encode buf df;
  Util.Varint.encode buf cf;
  let last_doc = ref (-1) in
  List.iter
    (fun (doc, positions) ->
      if doc <= !last_doc then invalid_arg "Postings.encode: doc ids must be strictly ascending";
      if positions = [] then invalid_arg "Postings.encode: empty position list";
      let gap = if !last_doc < 0 then doc else doc - !last_doc in
      last_doc := doc;
      Util.Varint.encode buf gap;
      Util.Varint.encode buf (List.length positions);
      let last_pos = ref (-1) in
      List.iter
        (fun p ->
          if p <= !last_pos then
            invalid_arg "Postings.encode: positions must be strictly ascending";
          let pgap = if !last_pos < 0 then p else p - !last_pos in
          last_pos := p;
          Util.Varint.encode buf pgap)
        positions)
    entries;
  Buffer.to_bytes buf

module Builder = struct
  type t = {
    doc_buf : Buffer.t; (* the doc region: v-byte (gap, tf) pairs *)
    pos_buf : Buffer.t;
    mutable last_doc : int;
    mutable df : int;
    mutable cf : int;
    mutable max_tf : int;
    (* Reversed list of block boundaries: (last doc id, cumulative doc-region
       bytes, cumulative pos-region bytes) at each full block's end. *)
    mutable marks : (int * int * int) list;
    (* First few entries kept verbatim so sub-cutoff records can be
       re-emitted in the compact v1 layout. *)
    mutable head : (int * int list) list;
  }

  let create () =
    {
      doc_buf = Buffer.create 64;
      pos_buf = Buffer.create 64;
      last_doc = -1;
      df = 0;
      cf = 0;
      max_tf = 0;
      marks = [];
      head = [];
    }

  let add t ~doc ~positions =
    if doc <= t.last_doc then invalid_arg "Postings.encode: doc ids must be strictly ascending";
    if positions = [] then invalid_arg "Postings.encode: empty position list";
    let gap = if t.last_doc < 0 then doc else doc - t.last_doc in
    t.last_doc <- doc;
    let tf = List.length positions in
    Util.Varint.encode t.doc_buf gap;
    Util.Varint.encode t.doc_buf tf;
    let last_pos = ref (-1) in
    List.iter
      (fun p ->
        if p <= !last_pos then invalid_arg "Postings.encode: positions must be strictly ascending";
        let pgap = if !last_pos < 0 then p else p - !last_pos in
        last_pos := p;
        Util.Varint.encode t.pos_buf pgap)
      positions;
    t.df <- t.df + 1;
    t.cf <- t.cf + tf;
    if tf > t.max_tf then t.max_tf <- tf;
    if t.df <= v1_cutoff_df then t.head <- (doc, positions) :: t.head;
    if t.df mod block_size = 0 then
      t.marks <- (doc, Buffer.length t.doc_buf, Buffer.length t.pos_buf) :: t.marks

  (* Every block's boundary, the final partial block's included. *)
  let final_marks t =
    if t.df mod block_size = 0 then List.rev t.marks
    else List.rev ((t.last_doc, Buffer.length t.doc_buf, Buffer.length t.pos_buf) :: t.marks)

  let finish_v2 t =
    let marks = final_marks t in
    let skip_buf = Buffer.create 32 in
    let prev = ref (-1) and prev_d = ref 0 and prev_p = ref 0 in
    List.iter
      (fun (last_doc, d, p) ->
        Util.Varint.encode skip_buf (if !prev < 0 then last_doc else last_doc - !prev);
        Util.Varint.encode skip_buf (d - !prev_d);
        Util.Varint.encode skip_buf (p - !prev_p);
        prev := last_doc;
        prev_d := d;
        prev_p := p)
      marks;
    let out = Buffer.create 64 in
    Buffer.add_char out v2_tag0;
    Buffer.add_char out tag_vbyte;
    Util.Varint.encode out t.df;
    Util.Varint.encode out t.cf;
    Util.Varint.encode out t.max_tf;
    Util.Varint.encode out (List.length marks);
    Util.Varint.encode out (Buffer.length skip_buf);
    Buffer.add_buffer out skip_buf;
    Util.Varint.encode out (Buffer.length t.doc_buf);
    Buffer.add_buffer out t.doc_buf;
    Buffer.add_buffer out t.pos_buf;
    Buffer.to_bytes out

  let finish t = if t.df < v1_cutoff_df then encode_v1 (List.rev t.head) else finish_v2 t
end

let encode entries =
  let b = Builder.create () in
  List.iter (fun (doc, positions) -> Builder.add b ~doc ~positions) entries;
  Builder.finish b

(* ------------------------------------------------------------------ *)
(* v2 layout parsing                                                   *)
(* ------------------------------------------------------------------ *)

type layout = {
  l_df : int;
  l_cf : int;
  l_max_tf : int;
  l_blocks : int;
  l_skip_off : int;
  l_skip_len : int;
  l_doc_off : int;
  l_doc_len : int;
  l_pos_off : int;
}

let parse_layout b =
  let df, pos = Util.Varint.decode b ~pos:2 in
  let cf, pos = Util.Varint.decode b ~pos in
  let max_tf, pos = Util.Varint.decode b ~pos in
  let blocks, pos = Util.Varint.decode b ~pos in
  let skip_len, skip_off = Util.Varint.decode b ~pos in
  (* An overlong varint can code a negative length; never read before
     the record's start. *)
  if skip_len < 0 then invalid_arg "Postings: negative skip-table length";
  let doc_len, doc_off = Util.Varint.decode b ~pos:(skip_off + skip_len) in
  {
    l_df = df;
    l_cf = cf;
    l_max_tf = max_tf;
    l_blocks = blocks;
    l_skip_off = skip_off;
    l_skip_len = skip_len;
    l_doc_off = doc_off;
    l_doc_len = doc_len;
    l_pos_off = doc_off + doc_len;
  }

type skip = {
  sk_last_doc : int;
  sk_doc_off : int;
  sk_doc_len : int;
  sk_pos_off : int;
  sk_pos_len : int;
}

let parse_skips b lay =
  let n = lay.l_blocks in
  let skips =
    Array.make n { sk_last_doc = -1; sk_doc_off = 0; sk_doc_len = 0; sk_pos_off = 0; sk_pos_len = 0 }
  in
  let pos = ref lay.l_skip_off in
  let last = ref (-1) and doff = ref lay.l_doc_off and poff = ref lay.l_pos_off in
  for i = 0 to n - 1 do
    let dld, p = Util.Varint.decode b ~pos:!pos in
    let dl, p = Util.Varint.decode b ~pos:p in
    let pl, p = Util.Varint.decode b ~pos:p in
    pos := p;
    let last_doc = if !last < 0 then dld else !last + dld in
    skips.(i) <-
      { sk_last_doc = last_doc; sk_doc_off = !doff; sk_doc_len = dl; sk_pos_off = !poff; sk_pos_len = pl };
    last := last_doc;
    doff := !doff + dl;
    poff := !poff + pl
  done;
  skips

(* ------------------------------------------------------------------ *)
(* Block decoding (shared by the folds, the cursor and validate)       *)
(* ------------------------------------------------------------------ *)

let docs_in_block lay i =
  if i = lay.l_blocks - 1 then lay.l_df - (i * block_size) else block_size

(* Decode block [i]'s absolute doc ids and tfs into fresh arrays.  Gaps
   continue from the previous block's last doc id, so one block decodes
   independently given the skip table. *)
let decode_block b ~lay ~(skips : skip array) i =
  let n = docs_in_block lay i in
  let sk = skips.(i) in
  let docs = Array.make n 0 and tfs = Array.make n 0 in
  let pos = ref sk.sk_doc_off in
  let doc = ref (if i = 0 then -1 else skips.(i - 1).sk_last_doc) in
  for j = 0 to n - 1 do
    let gap = Util.Varint.read b pos in
    doc := (if !doc < 0 then gap else !doc + gap);
    docs.(j) <- !doc;
    tfs.(j) <- Util.Varint.read b pos
  done;
  (docs, tfs)

(* Sequential (doc, tf) fold over a v2 record.  Deliberately reads only
   the doc region, whose v-byte pairs are self-delimiting, so a
   corrupted skip table cannot disturb a scan; only the seeking cursor
   trusts the skip table. *)
let fold_docs_v2 b ~lay ~init ~f =
  let acc = ref init in
  let pos = ref lay.l_doc_off and doc = ref (-1) in
  for _ = 1 to lay.l_df do
    let gap = Util.Varint.read b pos in
    doc := (if !doc < 0 then gap else !doc + gap);
    let tf = Util.Varint.read b pos in
    acc := f !acc ~doc:!doc ~tf
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Decoders (version-sniffing)                                         *)
(* ------------------------------------------------------------------ *)

let stats b =
  if version b = 2 then begin
    let lay = parse_layout b in
    (lay.l_df, lay.l_cf)
  end
  else begin
    let df, pos = Util.Varint.decode b ~pos:0 in
    let cf, _ = Util.Varint.decode b ~pos in
    (df, cf)
  end

let doc_count b = fst (stats b)

let max_tf b = if version b = 2 then Some (parse_layout b).l_max_tf else None

(* Cheap per-record statistics for the query planner: header and skip
   table only, never the doc region, so the cost of asking is O(blocks)
   parsing — orders of magnitude below a decode.  The caller fetched the
   bytes through the record's locator; this is the read side of that
   bargain. *)
type record_stats = {
  rs_tier : tier;
  rs_df : int;
  rs_cf : int;
  rs_max_tf : int option; (* None on v1 records (no header slot) *)
  rs_blocks : int; (* skip blocks; 0 on v1 (no skip table) *)
  rs_doc_bytes : int;
  rs_pos_bytes : int;
}

let record_stats b =
  if version b = 2 then begin
    let lay = parse_layout b in
    {
      rs_tier = tier b;
      rs_df = lay.l_df;
      rs_cf = lay.l_cf;
      rs_max_tf = Some lay.l_max_tf;
      rs_blocks = lay.l_blocks;
      rs_doc_bytes = lay.l_doc_len;
      rs_pos_bytes = Bytes.length b - lay.l_pos_off;
    }
  end
  else begin
    let df, pos = Util.Varint.decode b ~pos:0 in
    let cf, pos = Util.Varint.decode b ~pos in
    (* v1 interleaves (doc, tf) pairs with position gaps: a document
       scan must walk every payload byte, so the whole payload counts
       as doc bytes and nothing as separately skippable position
       bytes. *)
    {
      rs_tier = V1;
      rs_df = df;
      rs_cf = cf;
      rs_max_tf = None;
      rs_blocks = 0;
      rs_doc_bytes = Bytes.length b - pos;
      rs_pos_bytes = 0;
    }
  end

let skip_table_region b =
  if version b = 2 then begin
    let lay = parse_layout b in
    Some (lay.l_skip_off, lay.l_skip_len)
  end
  else None

let doc_region b =
  if version b = 2 then begin
    let lay = parse_layout b in
    Some (lay.l_doc_off, lay.l_doc_len)
  end
  else None

let fold_docs b ~init ~f =
  match tier b with
  | V1 ->
    let df, pos = Util.Varint.decode b ~pos:0 in
    let _cf, pos = Util.Varint.decode b ~pos in
    let rec go k pos doc acc =
      if k = 0 then acc
      else begin
        let gap, pos = Util.Varint.decode b ~pos in
        let doc = if doc < 0 then gap else doc + gap in
        let tf, pos = Util.Varint.decode b ~pos in
        (* Skip the tf position gaps. *)
        let rec skip n pos =
          if n = 0 then pos else skip (n - 1) (snd (Util.Varint.decode b ~pos))
        in
        let pos = skip tf pos in
        go (k - 1) pos doc (f acc ~doc ~tf)
      end
    in
    go df pos (-1) init
  | _ -> fold_docs_v2 b ~lay:(parse_layout b) ~init ~f

let read_positions b ~pos ~tf =
  let rec read n pos last acc_ps =
    if n = 0 then (List.rev acc_ps, pos)
    else begin
      let pgap, pos = Util.Varint.decode b ~pos in
      let p = if last < 0 then pgap else last + pgap in
      read (n - 1) pos p (p :: acc_ps)
    end
  in
  read tf pos (-1) []

let fold_positions b ~init ~f =
  match tier b with
  | V1 ->
    let df, pos = Util.Varint.decode b ~pos:0 in
    let _cf, pos = Util.Varint.decode b ~pos in
    let rec go k pos doc acc =
      if k = 0 then acc
      else begin
        let gap, pos = Util.Varint.decode b ~pos in
        let doc = if doc < 0 then gap else doc + gap in
        let tf, pos = Util.Varint.decode b ~pos in
        let positions, pos = read_positions b ~pos ~tf in
        go (k - 1) pos doc (f acc { doc; positions })
      end
    in
    go df pos (-1) init
  | _ ->
    let lay = parse_layout b in
    (* The doc stream and the position stream advance in lockstep, one
       gap run per doc. *)
    let ppos = ref lay.l_pos_off in
    fold_docs_v2 b ~lay ~init ~f:(fun acc ~doc ~tf ->
        let positions, p = read_positions b ~pos:!ppos ~tf in
        ppos := p;
        f acc { doc; positions })

let decode b = List.rev (fold_positions b ~init:[] ~f:(fun acc dp -> dp :: acc))

(* One decode of every input straight into one builder.  A lone record
   with nothing to drop, already in the tier its document count calls
   for, is what the builder would emit, so it passes through; a v1 body
   grown past [v1_cutoff_df] (an {!Ingest} run) is re-encoded. *)
let concat ?keep records =
  match (keep, records) with
  | None, [ r ] when tier r = tier_of_df (doc_count r) -> Some r
  | _ ->
    let b = Builder.create () in
    let last = ref (-1) in
    List.iter
      (fun r ->
        fold_positions r ~init:() ~f:(fun () { doc; positions } ->
            if doc <= !last then invalid_arg "Postings.concat: documents out of order";
            last := doc;
            match keep with
            | Some keep when not (keep doc) -> ()
            | _ -> Builder.add b ~doc ~positions))
      records;
    if b.Builder.df = 0 then None else Some (Builder.finish b)

(* ------------------------------------------------------------------ *)
(* Deep structural validation (fsck)                                   *)
(* ------------------------------------------------------------------ *)

exception Bad of string

let check cond msg = if not cond then raise (Bad msg)

(* The next id of an ascending run (documents, or one document's
   positions): the first gap is the id itself, every later gap is at
   least 1, and no id overflows. *)
let next_id prev gap msg =
  check (if prev < 0 then gap >= 0 else gap >= 1 && gap <= max_int - prev) msg;
  if prev < 0 then gap else prev + gap

(* Walk one block's slice of the position region: tf ascending gap runs
   must tile the block's sk_pos_len exactly. *)
let validate_block_positions b sk tfs i =
  let ppos = ref sk.sk_pos_off in
  Array.iter
    (fun tf ->
      let p = ref (-1) in
      for _ = 1 to tf do
        p := next_id !p (Util.Varint.read b ppos) "position gaps not strictly ascending"
      done)
    tfs;
  check (!ppos = sk.sk_pos_off + sk.sk_pos_len)
    (Printf.sprintf "block %d pos bytes %d <> skip entry %d" i (!ppos - sk.sk_pos_off) sk.sk_pos_len)

(* Walk one block's doc bytes: re-derive its (gap, tf) pairs with every
   structural invariant checked, so a single flipped bit anywhere in the
   region trips a check here or against the skip table, cf or max_tf. *)
let validate_block_docs b ~prev_doc sk in_block i =
  let stop = sk.sk_doc_off + sk.sk_doc_len in
  let tfs = Array.make in_block 0 in
  let dpos = ref sk.sk_doc_off and doc = ref prev_doc in
  for j = 0 to in_block - 1 do
    let gap = Util.Varint.read b dpos in
    let tf = Util.Varint.read b dpos in
    check (!dpos <= stop) "doc entry overruns block";
    doc := next_id !doc gap "doc gaps not strictly ascending";
    check (tf >= 1) "posting with zero tf";
    tfs.(j) <- tf
  done;
  check (!dpos = stop)
    (Printf.sprintf "block %d doc bytes %d <> skip entry %d" i (!dpos - sk.sk_doc_off) sk.sk_doc_len);
  (!doc, tfs)

let validate_v2 b =
  let len = Bytes.length b in
  let lay = parse_layout b in
  check (lay.l_df >= 0 && lay.l_cf >= lay.l_df) "df/cf header implausible";
  check
    (lay.l_blocks = (lay.l_df + block_size - 1) / block_size)
    (Printf.sprintf "block count %d inconsistent with df %d" lay.l_blocks lay.l_df);
  check (lay.l_skip_off + lay.l_skip_len <= len) "skip table extends past record end";
  check (lay.l_pos_off <= len) "doc region extends past record end";
  (* Only a record of v1_cutoff_df or more documents carries the v2
     sentinel, so a flipped bit cannot re-read a v1 record's bytes as v2
     (or, since no v2 record is empty, leave an empty one). *)
  check (tier_of_df lay.l_df = Vbyte)
    (Printf.sprintf "df %d is below the v2 cutoff %d" lay.l_df v1_cutoff_df);
  (* Skip-table invariants: exact byte length, strictly monotone last-doc
     ids, per-block byte counts that tile both regions. *)
  let pos = ref lay.l_skip_off and dsum = ref 0 and psum = ref 0 in
  for i = 0 to lay.l_blocks - 1 do
    check (!pos < lay.l_skip_off + lay.l_skip_len) "skip table truncated";
    let dld = Util.Varint.read b pos in
    let dl = Util.Varint.read b pos in
    let pl = Util.Varint.read b pos in
    check (!pos <= lay.l_skip_off + lay.l_skip_len) "skip entry overruns skip table";
    check (i = 0 || dld >= 1) "skip-table last-doc ids not strictly ascending";
    check (dl >= 1 && pl >= 1 && dl <= lay.l_doc_len && pl <= len) "skip entry with an impossible block";
    dsum := !dsum + dl;
    psum := !psum + pl
  done;
  check (!pos = lay.l_skip_off + lay.l_skip_len) "skip table has trailing bytes";
  check (!dsum = lay.l_doc_len)
    (Printf.sprintf "skip doc-bytes sum %d <> doc region length %d" !dsum lay.l_doc_len);
  check (!psum = len - lay.l_pos_off)
    (Printf.sprintf "skip pos-bytes sum %d <> position region length %d" !psum (len - lay.l_pos_off));
  (* Walk both regions block by block against the skip entries. *)
  let skips = parse_skips b lay in
  let cf = ref 0 and seen_max_tf = ref 0 and doc = ref (-1) in
  Array.iteri
    (fun i sk ->
      let last_doc, tfs = validate_block_docs b ~prev_doc:!doc sk (docs_in_block lay i) i in
      doc := last_doc;
      Array.iter
        (fun tf ->
          cf := !cf + tf;
          if tf > !seen_max_tf then seen_max_tf := tf)
        tfs;
      validate_block_positions b sk tfs i;
      check (!doc = sk.sk_last_doc)
        (Printf.sprintf "block %d ends at doc %d, skip table says %d" i !doc sk.sk_last_doc))
    skips;
  check (!cf = lay.l_cf) (Printf.sprintf "tf sum %d <> header cf %d" !cf lay.l_cf);
  check (!seen_max_tf = lay.l_max_tf)
    (Printf.sprintf "observed max tf %d <> header max_tf %d" !seen_max_tf lay.l_max_tf)

let validate_v1 b =
  let df, pos = Util.Varint.decode b ~pos:0 in
  let cf, pos = Util.Varint.decode b ~pos in
  check (df >= 0 && cf >= df) "df/cf header implausible";
  let pos = ref pos and doc = ref (-1) and cf' = ref 0 in
  for _ = 1 to df do
    doc := next_id !doc (Util.Varint.read b pos) "doc gaps not strictly ascending";
    let tf = Util.Varint.read b pos in
    check (tf >= 1) "posting with zero tf";
    cf' := !cf' + tf;
    let p = ref (-1) in
    for _ = 1 to tf do
      p := next_id !p (Util.Varint.read b pos) "position gaps not strictly ascending"
    done
  done;
  check (!pos = Bytes.length b) "record has trailing bytes";
  check (!cf' = cf) (Printf.sprintf "tf sum %d <> header cf %d" !cf' cf)

let validate b =
  match if version b = 2 then validate_v2 b else validate_v1 b with
  | () -> Ok ()
  | exception Bad msg -> Error msg
  | exception Invalid_argument msg -> Error ("undecodable: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Cursors                                                             *)
(* ------------------------------------------------------------------ *)

(* v2 cursors decode a whole block at a time into (docs, tfs) arrays:
   sequential stepping is array reads and in-block seeking is binary
   search.  v1 cursors keep the original interleaved byte-stepping. *)

type cursor = {
  data : bytes;
  cur_tier : tier;
  cur_df : int;
  skips : skip array; (* empty for v1 *)
  c_lay : layout option; (* None for v1 *)
  mutable byte : int; (* v1: next byte to decode *)
  mutable blk : int; (* v2: block currently decoded into bdocs/btfs *)
  mutable bdocs : int array;
  mutable btfs : int array;
  mutable bi : int; (* v2: index of the current posting within blk *)
  mutable idx : int; (* index of the current posting; df once exhausted *)
  mutable doc : int; (* current doc, max_int once exhausted *)
  mutable tf : int;
  mutable decoded : int;
  mutable blocks_skipped : int;
  mutable n_seeks : int;
  mutable blocks_loaded : int; (* blocks decoded *)
  mutable bytes_read : int; (* record bytes actually decoded (doc + position) *)
  (* Lazy per-document position walk (v2): the byte offset [p_off] of
     in-block document [p_idx]'s position run inside block [p_blk].
     Valid only when [p_blk] matches the decoded block. *)
  mutable p_blk : int;
  mutable p_idx : int;
  mutable p_off : int;
  mutable pos_run : int; (* v1: byte offset of the current posting's position run *)
}

(* Decode block [i] and make it current. *)
let load_block c i =
  let lay = match c.c_lay with Some l -> l | None -> assert false in
  let docs, tfs = decode_block c.data ~lay ~skips:c.skips i in
  c.decoded <- c.decoded + Array.length docs;
  c.blocks_loaded <- c.blocks_loaded + 1;
  c.bytes_read <- c.bytes_read + c.skips.(i).sk_doc_len;
  c.blk <- i;
  c.bdocs <- docs;
  c.btfs <- tfs

let cursor b =
  match tier b with
  | V1 ->
    let df, pos = Util.Varint.decode b ~pos:0 in
    let _cf, pos = Util.Varint.decode b ~pos in
    let c =
      {
        data = b;
        cur_tier = V1;
        cur_df = df;
        skips = [||];
        c_lay = None;
        byte = pos;
        blk = -1;
        bdocs = [||];
        btfs = [||];
        bi = 0;
        idx = -1;
        doc = -1;
        tf = 0;
        decoded = 0;
        blocks_skipped = 0;
        n_seeks = 0;
        blocks_loaded = 0;
        bytes_read = 0;
        p_blk = -1;
        p_idx = 0;
        p_off = 0;
        pos_run = 0;
      }
    in
    c.idx <- 0;
    if df = 0 then c.doc <- max_int
    else begin
      (* Position on the first posting. *)
      let start = c.byte in
      let gap, pos = Util.Varint.decode b ~pos:c.byte in
      c.doc <- gap;
      let tf, pos = Util.Varint.decode b ~pos in
      c.tf <- tf;
      c.pos_run <- pos;
      let rec skip n pos =
        if n = 0 then pos else skip (n - 1) (snd (Util.Varint.decode b ~pos))
      in
      c.byte <- skip tf pos;
      c.decoded <- 1;
      c.bytes_read <- c.bytes_read + (c.byte - start)
    end;
    c
  | tr ->
    let lay = parse_layout b in
    let c =
      {
        data = b;
        cur_tier = tr;
        cur_df = lay.l_df;
        skips = parse_skips b lay;
        c_lay = Some lay;
        byte = 0;
        blk = -1;
        bdocs = [||];
        btfs = [||];
        bi = 0;
        idx = 0;
        doc = max_int;
        tf = 0;
        decoded = 0;
        blocks_skipped = 0;
        n_seeks = 0;
        blocks_loaded = 0;
        bytes_read = 0;
        p_blk = -1;
        p_idx = 0;
        p_off = 0;
        pos_run = 0;
      }
    in
    if lay.l_df > 0 then begin
      load_block c 0;
      c.doc <- c.bdocs.(0);
      c.tf <- c.btfs.(0)
    end
    else c.idx <- 0;
    c

let cur_doc c = c.doc
let cur_tf c = c.tf
let cursor_df c = c.cur_df

let cursor_next c =
  if c.cur_tier = V1 then begin
    c.idx <- c.idx + 1;
    if c.idx >= c.cur_df then begin
      c.idx <- c.cur_df;
      c.doc <- max_int
    end
    else begin
      let start = c.byte in
      let gap, pos = Util.Varint.decode c.data ~pos:c.byte in
      c.doc <- (if c.doc < 0 then gap else c.doc + gap);
      let tf, pos = Util.Varint.decode c.data ~pos in
      c.tf <- tf;
      c.pos_run <- pos;
      let rec skip n pos =
        if n = 0 then pos else skip (n - 1) (snd (Util.Varint.decode c.data ~pos))
      in
      c.byte <- skip tf pos;
      c.decoded <- c.decoded + 1;
      c.bytes_read <- c.bytes_read + (c.byte - start)
    end
  end
  else if c.doc <> max_int then begin
    if c.idx + 1 >= c.cur_df then begin
      c.idx <- c.cur_df;
      c.doc <- max_int
    end
    else begin
      c.idx <- c.idx + 1;
      c.bi <- c.bi + 1;
      if c.bi >= Array.length c.bdocs then begin
        load_block c (c.blk + 1);
        c.bi <- 0
      end;
      c.doc <- c.bdocs.(c.bi);
      c.tf <- c.btfs.(c.bi)
    end
  end

let cursor_decoded c = c.decoded
let cursor_blocks_skipped c = c.blocks_skipped
let cursor_seeks c = c.n_seeks
let cursor_blocks_loaded c = c.blocks_loaded
let cursor_bytes_read c = c.bytes_read

(* Decode the current document's position list.  On v2 records the
   block's slice of the position region is walked forward on demand:
   the skip table names where the block's positions start, and the
   already-decoded tfs let preceding in-block runs be skipped — so an
   intersection-style evaluator pays for positions only on documents
   every member reaches, never for the rest of the record.  Walked
   bytes count toward {!cursor_bytes_read}. *)
let cursor_positions c =
  if c.doc = max_int then invalid_arg "Postings.cursor_positions: cursor exhausted";
  if c.cur_tier = V1 then fst (read_positions c.data ~pos:c.pos_run ~tf:c.tf)
  else begin
    (* Restart the walk when the cursor moved to a new block, or asked
       for the same document twice (the walk already passed it). *)
    if c.p_blk <> c.blk || c.p_idx > c.bi then begin
      c.p_blk <- c.blk;
      c.p_idx <- 0;
      c.p_off <- c.skips.(c.blk).sk_pos_off
    end;
    let start = c.p_off in
    let rec skip n pos =
      if n = 0 then pos else skip (n - 1) (snd (Util.Varint.decode c.data ~pos))
    in
    while c.p_idx < c.bi do
      c.p_off <- skip c.btfs.(c.p_idx) c.p_off;
      c.p_idx <- c.p_idx + 1
    done;
    let ps, fin = read_positions c.data ~pos:c.p_off ~tf:c.tf in
    c.p_off <- fin;
    c.p_idx <- c.bi + 1;
    c.bytes_read <- c.bytes_read + (fin - start);
    ps
  end

let cursor_seek c target =
  if c.doc < target && c.doc <> max_int then begin
    c.n_seeks <- c.n_seeks + 1;
    if c.cur_tier <> V1 && Array.length c.skips > 0 then begin
      let cur_block = c.blk in
      let n = Array.length c.skips in
      (* Smallest block whose last doc id reaches the target. *)
      let lo = ref cur_block and hi = ref n in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if c.skips.(mid).sk_last_doc >= target then hi := mid else lo := mid + 1
      done;
      if !lo >= n then begin
        (* No block can contain the target: exhaust without decoding. *)
        c.blocks_skipped <- c.blocks_skipped + (n - cur_block);
        c.idx <- c.cur_df;
        c.doc <- max_int
      end
      else begin
        if !lo > cur_block then begin
          c.blocks_skipped <- c.blocks_skipped + (!lo - cur_block);
          load_block c !lo;
          c.bi <- 0
        end;
        (* The target is at or before this block's last doc: binary
           search the decoded arrays. *)
        let a = c.bdocs in
        let ilo = ref c.bi and ihi = ref (Array.length a) in
        while !ilo < !ihi do
          let mid = (!ilo + !ihi) / 2 in
          if a.(mid) >= target then ihi := mid else ilo := mid + 1
        done;
        if !ilo >= Array.length a then begin
          (* Only when the current block precedes the target block was
             no jump made — impossible, since sk_last_doc >= target;
             defensive fall-through to stepping. *)
          ()
        end
        else begin
          c.bi <- !ilo;
          c.idx <- (c.blk * block_size) + c.bi;
          c.doc <- a.(!ilo);
          c.tf <- c.btfs.(!ilo)
        end
      end
    end;
    while c.doc < target && c.doc <> max_int do
      cursor_next c
    done
  end
