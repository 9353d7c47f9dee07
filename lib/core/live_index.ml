module Tmap = Map.Make (String)
module Imap = Map.Make (Int)
module Iset = Set.Make (Int)

(* ------------------------------------------------------------------ *)
(* Epoch snapshots                                                     *)

(* A term's record is a chain of 1..[max_chunks] immutable chunks,
   oldest first: canonical postings records whose document ranges are
   disjoint and ascending, so their concatenation is the record.  A fold
   appends a term's new postings as one more chunk, or, once the chain
   is full, rewrites the chain and the addition as one record.  On the
   ingest-mixed stream run to 12 folds (3,000 adds, seed 1) the folds
   take 10.45 simulated seconds in all at a bound of 4, against 17.25
   rewriting whole records; bounds 2, 3, 6 and 8 take 12.69, 11.21,
   9.72 and 9.66.  Past 4 the saving flattens while every chain a read
   walks, and every root entry, grows; below it, folds consolidate
   twice as often. *)
let max_chunks = 4

(* A chunk of at most [inline_max] bytes rides inline in its term's
   root entry; a larger one is a Mneme object in the size class of its
   own bytes.  Most inverted lists stay that short: on ingest-mixed seed
   1, 6,900-7,600 of the ~8,300 chunks a fold writes are, 7 bytes on
   average, and as objects each took a 16-byte slot and a 2-3-byte oid
   in the root, their small-pool segments the largest thing a fold
   wrote.  Inline bytes are immutable, so every snapshot naming a chunk
   shares them. *)
type chunk = Object of int | Inline of string

(* The bound is the paper's small-pool payload, [Partition.default]'s
   [small_max] (12 bytes), and part of the root's format: the writer and
   every reader apply the same one. *)
let inline_max = Partition.default.Partition.small_max

type term_info = { ti_chunks : chunk list; ti_df : int; ti_cf : int }

(* An immutable image of the object directory at one published epoch:
   everything a reader needs to evaluate queries against that version
   without consulting any mutable state. *)
type snapshot = {
  sn_epoch : int;
  sn_terms : term_info Tmap.t;
  sn_doc_lens : int Imap.t;
  sn_total_len : int;
  sn_next_doc : int;
  sn_meta : string Tmap.t; (* opaque key/value pairs riding the root *)
}

type mneme_pools = {
  store : Mneme.Store.t;
  small : Mneme.Store.pool;
  medium : Mneme.Store.pool;
  large : Mneme.Store.pool;
}

type mneme_state = {
  mutable pools : mneme_pools;
  epochs : Mneme.Epoch.t;
  chains : (string, chunk list) Hashtbl.t; (* the latest state's chunks per term *)
  mutable snap : snapshot; (* the latest published epoch's image *)
  mutable parts : int list;
      (* the sealed root of [snap] as its chain of parts, base first: the
         header names the last; [] = never published *)
  journaled : bool;
  fitted : bool; (* buffers sized by [fit_buffers]; false keeps the caller's *)
}

type backend = Btree_backend of Btree.t | Mneme_backend of mneme_state

type t = {
  vfs : Vfs.t;
  mutable backend : backend;
  dict : Inquery.Dictionary.t;
  stopwords : Inquery.Stopwords.t option;
  stem : bool;
  doc_lens : (int, int) Hashtbl.t;
  mutable total_len : int;
  mutable next_doc_id : int;
  mutable live_meta : string Tmap.t; (* carried into every published root *)
  mutable publish_hooks : (epoch:int -> unit) list; (* registration order *)
}

let empty_snapshot epoch =
  {
    sn_epoch = epoch;
    sn_terms = Tmap.empty;
    sn_doc_lens = Imap.empty;
    sn_total_len = 0;
    sn_next_doc = 0;
    sn_meta = Tmap.empty;
  }

(* The sealed root is a chain of 1..[max_chunks] immutable parts,
   oldest first, and the header names the newest.  Each part is the root
   some earlier epoch sealed, an ordinary object in the EPRT envelope, so
   the chain adds no object kind.  A base part holds the whole
   directory.  Every later part, a delta, holds only what its own
   publication changed since the epoch before: each term whose chunks,
   df or cf changed, as an extension listing only the chunks appended to
   its chain since the part before, or, when the term is new,
   consolidated or rewritten, as a whole entry; a tombstone for a term
   removed; the documents added and removed; next-doc, the total length
   and the metadata as absolute values; and the oids of the parts before
   it.  An inline chunk is thus written once by the part that introduces
   it, and again only when a base is sealed: with whole entries every
   later touch of a term would copy its inline chunks again.  A
   publication that would make a fifth part seals a fresh base instead
   and retires every old part, the rule a full chunk chain follows.  On
   ingest-mixed seed 1 the roots of folds 1-4 were 65, 103, 144 and 176
   KB while each held the whole directory, and 65, 72, 93 and 99 KB as
   a base and three deltas; with chunks of at most 12 bytes inline they
   are 108, 106, 113 and 104 KB, and the 112-120 KiB of small-pool
   segments each fold wrote are gone.  A cumulative delta against one
   base would not pay at that cadence: the entries changed since fold 1
   outgrow the base by fold 2.

   A part's payload.  Integers are v-byte varints except the u32 counts
   and next-doc and the u64 total length:
   - the number of earlier parts (0 for a base), then their oids, base
     first;
   - next-doc, total length;
   - the added documents: their count, then per document in id order
     its gap from the previous id (the first from -1, so every gap is at
     least 1) and its length;
   - the removed documents: their count, then their gaps;
   - the term entries: their count, then per term in [Tmap] order the
     term front-coded against the one before it (the length of the
     prefix they share, shifted left by [count_bits] and or-ed with the
     number of chunks the entry lists, 0 for a tombstone; the suffix
     length, shifted left by one and or-ed with 1 for an extension; the
     suffix bytes), then, unless a tombstone, the chunks it lists oldest
     first, df and cf.  A chunk is one varint, an object's oid shifted
     left by one, or an inline chunk's length shifted left by one and
     or-ed with 1 and followed by its bytes;
   - the metadata count, then each key and value as a u32-length string,
     keys ascending.
   Front coding stores each term's shared prefix once.  Tmap/Imap
   iteration is sorted, so the encoding is deterministic: byte-identical
   parts for identical changes, whatever mutation order built them.
   [decode_snapshot] accepts this canonical form alone and raises
   [Mneme.Store.Corrupt] on anything else.  Within a part: a shared
   prefix that is not exactly the common prefix with the previous term
   (longer than that term, say), a document id, term or key not strictly
   after the one before it, a chunk count above [max_chunks], an inline
   chunk that is empty, longer than [inline_max] or not a record
   [Inquery.Postings.validate] accepts, inline chunks of one chain whose
   documents do not ascend from chunk to chunk, an extension in a base, of a
   term the earlier parts lack, that appends no chunk or that makes a
   chain longer than [max_chunks], a whole entry whose chain extends the
   one the earlier parts give, an entry equal to the one they already
   give, a tombstone for a term they lack, an added document they hold
   or a removed one they lack, and bytes left over after the metadata.
   Across the chain: more than [max_chunks] parts, the root's own oid
   listed as a part, a part whose own part list is not the chain before
   it, part epochs that do not strictly ascend, and an oid named twice
   across the parts and the object chunks of the directory they give, or
   a chunk oid equal to the root's.  The chunk count rides the
   shared-prefix varint and the extension flag the suffix length's, so a
   one-chunk entry costs what a bare locator did whenever the shared
   prefix is under 16 bytes and the suffix under 64. *)
let count_bits = 3
let () = assert (max_chunks < 1 lsl count_bits)

let common_prefix a b =
  let n = min (String.length a) (String.length b) in
  let rec go i = if i < n && a.[i] = b.[i] then go (i + 1) else i in
  go 0

let encode_chunk b = function
  | Object oid -> Util.Varint.encode b (oid lsl 1)
  | Inline s ->
    Util.Varint.encode b ((String.length s lsl 1) lor 1);
    Buffer.add_string b s

(* Whether [chain] is [earlier] followed by at least one more chunk. *)
let rec extends earlier chain =
  match (earlier, chain) with
  | [], _ :: _ -> true
  | e :: earlier, c :: chain -> e = c && extends earlier chain
  | _ -> false

(* One part over the chain [earlier]: [entries] maps each changed term
   to its new entry and how many of its chunks head the chain the
   earlier parts give, which an extension does not list again (0 for a
   whole entry), or to [None] for a tombstone; [added] and [removed] are
   the documents; next-doc, the total length and the metadata are
   [snap]'s. *)
let encode_part ~earlier ~entries ~added ~removed snap =
  let b = Buffer.create 4096 in
  Util.Varint.encode b (List.length earlier);
  List.iter (Util.Varint.encode b) earlier;
  Util.Bin.buf_u32 b snap.sn_next_doc;
  Util.Bin.buf_u64 b snap.sn_total_len;
  Util.Bin.buf_u32 b (Imap.cardinal added);
  ignore
    (Imap.fold
       (fun doc len prev ->
         Util.Varint.encode b (doc - prev);
         Util.Varint.encode b len;
         doc)
       added (-1));
  Util.Bin.buf_u32 b (Iset.cardinal removed);
  ignore
    (Iset.fold
       (fun doc prev ->
         Util.Varint.encode b (doc - prev);
         doc)
       removed (-1));
  Util.Bin.buf_u32 b (Tmap.cardinal entries);
  ignore
    (Tmap.fold
       (fun term entry prev ->
         let shared = common_prefix prev term in
         let suffix = String.length term - shared in
         let listed, kept =
           match entry with
           | Some (ti, kept) -> (List.filteri (fun i _ -> i >= kept) ti.ti_chunks, kept)
           | None -> ([], 0)
         in
         Util.Varint.encode b ((shared lsl count_bits) lor List.length listed);
         Util.Varint.encode b ((suffix lsl 1) lor Bool.to_int (kept > 0));
         Buffer.add_substring b term shared suffix;
         Option.iter
           (fun (ti, _) ->
             List.iter (encode_chunk b) listed;
             Util.Varint.encode b ti.ti_df;
             Util.Varint.encode b ti.ti_cf)
           entry;
         term)
       entries "");
  Util.Bin.buf_u32 b (Tmap.cardinal snap.sn_meta);
  Tmap.iter
    (fun k v ->
      Util.Bin.buf_string b k;
      Util.Bin.buf_string b v)
    snap.sn_meta;
  Buffer.to_bytes b

(* The directory the chain of [root], sealed for [epoch] with [payload],
   gives, and the chain's oids, base first.  [part oid] reads an earlier
   part as its sealed epoch and payload. *)
let decode_snapshot ~epoch ~root ~part payload =
  let corrupt what = raise (Mneme.Store.Corrupt ("Live_index: root " ^ what)) in
  let varint payload pos =
    let v = Util.Varint.read payload pos in
    if v < 0 then corrupt "holds a varint past the int range";
    v
  in
  let part_list payload pos =
    let n = varint payload pos in
    if n >= max_chunks then corrupt (Printf.sprintf "lists %d earlier parts" n);
    List.init n (fun _ -> varint payload pos)
  in
  (* One part's payload after its part list, applied to [snap], the
     directory the parts before it give ([base]: none). *)
  let apply ~base snap payload pos =
    let u32 () =
      let v = Util.Bin.get_u32 payload !pos in
      pos := !pos + 4;
      v
    in
    let varint () = varint payload pos in
    let chunk () =
      let head = varint () in
      if head land 1 = 0 then Object (head lsr 1)
      else begin
        let len = head lsr 1 in
        if len = 0 then corrupt "holds an empty inline chunk";
        if len > inline_max then corrupt (Printf.sprintf "holds an inline chunk of %d bytes" len);
        let s = Bytes.sub_string payload !pos len in
        pos := !pos + len;
        (match Inquery.Postings.validate (Bytes.unsafe_of_string s) with
        | Ok () -> ()
        | Error e -> corrupt ("holds an inline chunk that is not a postings record: " ^ e));
        Inline s
      end
    in
    let next_doc = u32 () in
    let total_len = Util.Bin.get_u64 payload !pos in
    pos := !pos + 8;
    let docs = ref snap.sn_doc_lens in
    let ascending f =
      let doc = ref (-1) in
      for _ = 1 to u32 () do
        let next = !doc + varint () in
        if next <= !doc then corrupt "lists a document id out of order";
        doc := next;
        f next
      done
    in
    ascending (fun doc ->
        let len = varint () in
        if Imap.mem doc snap.sn_doc_lens then corrupt "adds a document already present";
        docs := Imap.add doc len !docs);
    ascending (fun doc ->
        if not (Imap.mem doc snap.sn_doc_lens) then corrupt "removes a document that is absent";
        docs := Imap.remove doc !docs);
    let terms = ref snap.sn_terms and prev = ref None in
    for _ = 1 to u32 () do
      let head = varint () in
      let shared = head lsr count_bits and count = head land ((1 lsl count_bits) - 1) in
      let tail = varint () in
      let suffix = tail lsr 1 and extension = tail land 1 = 1 in
      let last = Option.value ~default:"" !prev in
      if
        shared > String.length last
        || (shared < String.length last && suffix > 0 && Bytes.get payload !pos = last.[shared])
      then corrupt "front-codes a term against a prefix it does not share";
      let term = String.sub last 0 shared ^ Bytes.sub_string payload !pos suffix in
      pos := !pos + suffix;
      (match !prev with
      | Some p when String.compare term p <= 0 -> corrupt "lists a term out of order"
      | _ -> ());
      prev := Some term;
      let was = Tmap.find_opt term snap.sn_terms in
      if count = 0 && not extension then begin
        if was = None then corrupt "tombstones a term the earlier parts lack";
        terms := Tmap.remove term !terms
      end
      else begin
        if count > max_chunks then corrupt (Printf.sprintf "names a chain of %d chunks" count);
        let listed = List.init count (fun _ -> chunk ()) in
        let ti_df = varint () in
        let ti_cf = varint () in
        let ti_chunks =
          match was with
          | Some w when (not extension) && extends w.ti_chunks listed ->
            corrupt "lists whole a chain that extends the earlier one"
          | _ when not extension -> listed
          | _ when base -> corrupt "extends a chain in a base"
          | None -> corrupt "extends a term the earlier parts lack"
          | Some w ->
            if count = 0 then corrupt "extends a chain by no chunk";
            let n = List.length w.ti_chunks + count in
            if n > max_chunks then corrupt (Printf.sprintf "extends a chain to %d chunks" n);
            w.ti_chunks @ listed
        in
        (* A chain's chunks cover ascending, disjoint document ranges,
           or [Postings.concat] on the query path rejects them.  The
           decoder holds an inline chunk's bytes, not an object's, so it
           checks the documents of the inline chunks in chain order. *)
        ignore
          (List.fold_left
             (fun last -> function
               | Object _ -> last
               | Inline s ->
                 Inquery.Postings.fold_docs (Bytes.unsafe_of_string s) ~init:last
                   ~f:(fun last ~doc ~tf:_ ->
                     if doc <= last then corrupt "holds inline chunks whose documents overlap";
                     doc))
             (-1) ti_chunks);
        let ti = { ti_chunks; ti_df; ti_cf } in
        if was = Some ti then corrupt "repeats an entry the earlier parts give";
        terms := Tmap.add term ti !terms
      end
    done;
    let meta = ref Tmap.empty in
    for _ = 1 to u32 () do
      let k, p = Util.Bin.get_string payload !pos in
      let v, p = Util.Bin.get_string payload p in
      (match Tmap.max_binding_opt !meta with
      | Some (last, _) when String.compare k last <= 0 ->
        corrupt "lists a metadata key out of order"
      | _ -> ());
      meta := Tmap.add k v !meta;
      pos := p
    done;
    if !pos <> Bytes.length payload then corrupt "has bytes left over after the metadata";
    {
      snap with
      sn_terms = !terms;
      sn_doc_lens = !docs;
      sn_total_len = total_len;
      sn_next_doc = next_doc;
      sn_meta = !meta;
    }
  in
  try
    let pos = ref 0 in
    let earlier = part_list payload pos in
    if List.mem root earlier then corrupt "lists its own oid as a part";
    let snap, _ =
      List.fold_left
        (fun (snap, before) oid ->
          let e, p = part oid in
          if e <= snap.sn_epoch then corrupt "holds parts whose epochs do not ascend";
          let at = ref 0 in
          if part_list p at <> List.rev before then
            corrupt
              (Printf.sprintf "holds part %d, whose own part list is not the chain before it" oid);
          (apply ~base:(before = []) { snap with sn_epoch = e } p at, oid :: before))
        (empty_snapshot (-1), [])
        earlier
    in
    if epoch <= snap.sn_epoch then corrupt "holds parts whose epochs do not ascend";
    let snap = apply ~base:(earlier = []) { snap with sn_epoch = epoch } payload pos in
    let named = Hashtbl.create 1024 in
    let name oid =
      if Hashtbl.mem named oid then corrupt "names an oid twice";
      Hashtbl.replace named oid ()
    in
    List.iter name earlier;
    Tmap.iter
      (fun _ ti ->
        List.iter
          (function
            | Object oid ->
              if oid = root then corrupt "names its own oid as a chunk";
              name oid
            | Inline _ -> ())
          ti.ti_chunks)
      snap.sn_terms;
    (snap, earlier @ [ root ])
  with Invalid_argument _ | Failure _ -> raise (Mneme.Store.Corrupt "Live_index: root is malformed")

(* The directory the store's published root chain gives, and the chain. *)
let read_root store =
  let corrupt what = raise (Mneme.Store.Corrupt ("Live_index: " ^ what)) in
  let epoch = Mneme.Store.epoch store in
  let root =
    match Mneme.Store.root store with
    | Some oid -> oid
    | None -> corrupt "store has no published root"
  in
  let sealed oid =
    match Mneme.Store.get_opt store oid with
    | None -> corrupt (Printf.sprintf "root part %d resolves to no object" oid)
    | Some b -> (
      match Mneme.Epoch.unseal b with
      | Ok sealed -> sealed
      | Error msg -> corrupt (Printf.sprintf "root part %d: %s" oid msg))
  in
  let e, payload = sealed root in
  if e <> epoch then corrupt (Printf.sprintf "root sealed for epoch %d, header says %d" e epoch);
  decode_snapshot ~epoch ~root ~part:sealed payload

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let make ?stopwords ?(stem = false) vfs backend dict doc_lengths =
  let doc_lens = Hashtbl.create (max 64 (List.length doc_lengths)) in
  let total_len = ref 0 in
  let next = ref 0 in
  List.iter
    (fun (doc, len) ->
      Hashtbl.replace doc_lens doc len;
      total_len := !total_len + len;
      if doc >= !next then next := doc + 1)
    doc_lengths;
  {
    vfs;
    backend;
    dict;
    stopwords;
    stem;
    doc_lens;
    total_len = !total_len;
    next_doc_id = !next;
    live_meta = Tmap.empty;
    publish_hooks = [];
  }

let wrap_btree ?stopwords ?stem vfs ~tree ~dict ~doc_lengths =
  make ?stopwords ?stem vfs (Btree_backend tree) dict doc_lengths

let pools_of_store store =
  {
    store;
    small = Mneme.Store.pool store "small";
    medium = Mneme.Store.pool store "medium";
    large = Mneme.Store.pool store "large";
  }

(* Census every live oid in the store into the epoch manager.  The walk
   reads only the (cached) slot tables; object sizes come from segment
   directories when [sized] (one pass of segment faults — the reopen
   path pays it so GC byte accounting is exact). *)
let census_oids ?(sized = false) store ~f =
  List.iter
    (fun pool ->
      List.iter
        (fun (lseg, slots) ->
          Array.iteri
            (fun slot pseg ->
              if pseg >= 0 then begin
                let oid = Mneme.Oid.make ~lseg ~slot in
                let size =
                  if sized then Option.value ~default:0 (Mneme.Store.object_size store oid)
                  else 0
                in
                f ~oid ~size
              end)
            slots)
        (Mneme.Store.pool_slot_tables pool))
    (Mneme.Store.pools store)

let snapshot_of_dict ~epoch ?(meta = Tmap.empty) dict chains doc_lens ~total_len ~next_doc =
  let terms =
    Hashtbl.fold
      (fun term ti_chunks acc ->
        let e = Option.get (Inquery.Dictionary.find dict term) in
        Tmap.add term
          { ti_chunks; ti_df = e.Inquery.Dictionary.df; ti_cf = e.Inquery.Dictionary.cf }
          acc)
      chains Tmap.empty
  in
  let dl = Hashtbl.fold (fun d l acc -> Imap.add d l acc) doc_lens Imap.empty in
  {
    sn_epoch = epoch;
    sn_terms = terms;
    sn_doc_lens = dl;
    sn_total_len = total_len;
    sn_next_doc = next_doc;
    sn_meta = meta;
  }

let wrap_mneme ?stopwords ?stem vfs ~store ~dict ~doc_lengths =
  if Mneme.Store.root store <> None then
    invalid_arg "Live_index.wrap_mneme: the store has a published root; open it with open_mneme";
  let epoch = Mneme.Store.epoch store in
  let epochs = Mneme.Epoch.create ~epoch in
  (* Everything already in the store is live in the current epoch;
     sizes of pre-existing objects are not censused (they would fault
     every segment), so GC byte counts cover only objects written
     through this live index. *)
  census_oids store ~f:(fun ~oid ~size -> Mneme.Epoch.adopt epochs ~oid ~size);
  (* Each adopted record is a one-chunk chain; the dictionary's locators
     are not read again. *)
  let chains = Hashtbl.create (max 64 (Inquery.Dictionary.size dict)) in
  Inquery.Dictionary.iter dict (fun e ->
      if e.Inquery.Dictionary.locator >= 0 then
        Hashtbl.replace chains e.Inquery.Dictionary.term [ Object e.Inquery.Dictionary.locator ]);
  let st =
    {
      pools = pools_of_store store;
      epochs;
      chains;
      snap = empty_snapshot epoch;
      parts = [];
      journaled = Mneme.Store.journal store <> None;
      fitted = false;
    }
  in
  let t = make ?stopwords ?stem vfs (Mneme_backend st) dict doc_lengths in
  st.snap <-
    snapshot_of_dict ~epoch dict chains t.doc_lens ~total_len:t.total_len ~next_doc:t.next_doc_id;
  t

let create_btree ?stopwords ?stem vfs ~file () =
  let tree = Btree.create vfs file () in
  make ?stopwords ?stem vfs (Btree_backend tree) (Inquery.Dictionary.create ()) []

(* Without [buffers] the pools start empty and [fit_buffers] sizes them. *)
let standard_pools ?(buffers = Buffer_sizing.no_cache) store =
  List.iter
    (fun (policy, capacity) ->
      let pool = Mneme.Store.add_pool store policy in
      Mneme.Store.attach_buffer pool
        (Mneme.Buffer_pool.create ~name:policy.Mneme.Policy.name ~capacity ()))
    [
      (Mneme.Policy.small, buffers.Buffer_sizing.small);
      (Mneme.Policy.medium, buffers.Buffer_sizing.medium);
      (Mneme.Policy.large, buffers.Buffer_sizing.large);
    ]

(* Size each pool's buffer to the writer's working set: the flushed
   segments that hold an object chunk the published directory names.
   The next fold consolidates exactly those chunks and searches read
   them, so they stay resident.  Every other resident segment holds only retired
   chunks (or parts of the sealed root, which the writer never re-reads
   but to audit) and is
   dropped here, unless a reader has it pinned: left in place it can be
   warmer than a live segment no search has touched lately, and the
   next fault would evict the live one.  Runs at every publication, on
   open and after compaction; a caller's explicit [?buffers], and the
   buffers of a wrapped store, stay fixed. *)
let fit_buffers st =
  if st.fitted then begin
    let segs = Hashtbl.create 1024 in
    Tmap.iter
      (fun _ ti ->
        List.iter
          (function
            | Object oid -> (
              match Mneme.Store.segment_of st.pools.store oid with
              | Some (pool, pseg, len) ->
                Hashtbl.replace segs (Mneme.Store.pool_name pool, pseg) len
              | None -> ())
            | Inline _ -> ())
          ti.ti_chunks)
      st.snap.sn_terms;
    List.iter
      (fun pool ->
        let name = Mneme.Store.pool_name pool in
        let bytes = Hashtbl.fold (fun (p, _) len acc -> if p = name then acc + len else acc) segs 0 in
        Option.iter
          (fun b ->
            let pinned = Mneme.Buffer_pool.pinned_segments b in
            List.iter
              (fun pseg ->
                if not (Hashtbl.mem segs (name, pseg) || List.mem pseg pinned) then
                  Mneme.Buffer_pool.drop b ~pseg)
              (Mneme.Buffer_pool.resident_segments b);
            Mneme.Buffer_pool.set_capacity b bytes)
          (Mneme.Store.buffer pool))
      [ st.pools.small; st.pools.medium; st.pools.large ]
  end

let create_mneme ?stopwords ?stem ?buffers ?journal vfs ~file () =
  let store = Mneme.Store.create vfs file in
  standard_pools ?buffers store;
  (match journal with
  | Some log_file -> Mneme.Store.enable_journal store ~log_file
  | None -> ());
  let st =
    {
      pools = pools_of_store store;
      epochs = Mneme.Epoch.create ~epoch:0;
      chains = Hashtbl.create 1024;
      snap = empty_snapshot 0;
      parts = [];
      journaled = journal <> None;
      fitted = Option.is_none buffers;
    }
  in
  make ?stopwords ?stem vfs (Mneme_backend st) (Inquery.Dictionary.create ()) []

let open_mneme ?stopwords ?stem ?buffers ?journal vfs ~file () =
  (match journal with
  | Some log_file -> ignore (Mneme.Store.recover_journal vfs ~file ~log_file)
  | None -> ());
  let store = Mneme.Store.open_existing vfs file in
  standard_pools ?buffers store;
  (match journal with
  | Some log_file -> Mneme.Store.enable_journal store ~log_file
  | None -> ());
  let snap, parts = read_root store in
  (* Rebuild the latest view from the snapshot.  Tmap iteration is
     sorted, so dictionary ids are assigned deterministically. *)
  let dict = Inquery.Dictionary.create () in
  let chains = Hashtbl.create (max 1024 (Tmap.cardinal snap.sn_terms)) in
  Tmap.iter
    (fun term ti ->
      let e = Inquery.Dictionary.intern dict term in
      e.Inquery.Dictionary.df <- ti.ti_df;
      e.Inquery.Dictionary.cf <- ti.ti_cf;
      Hashtbl.replace chains term ti.ti_chunks)
    snap.sn_terms;
  let doc_lengths = Imap.fold (fun d l acc -> (d, l) :: acc) snap.sn_doc_lens [] |> List.rev in
  (* Every object chunk the root chain names, and every part of the
     chain, is live; anything else in the store is an orphan of an
     unpublished or superseded epoch — stale, immediately reclaimable by
     [gc].  Inline chunks are bytes of the parts. *)
  let epochs = Mneme.Epoch.create ~epoch:snap.sn_epoch in
  let directory = Hashtbl.create 256 in
  Tmap.iter
    (fun _ ti ->
      List.iter
        (function Object oid -> Hashtbl.replace directory oid () | Inline _ -> ())
        ti.ti_chunks)
    snap.sn_terms;
  List.iter (fun oid -> Hashtbl.replace directory oid ()) parts;
  census_oids ~sized:true store ~f:(fun ~oid ~size ->
      if Hashtbl.mem directory oid then Mneme.Epoch.adopt epochs ~oid ~size
      else Mneme.Epoch.adopt_stale epochs ~oid ~size);
  let st =
    {
      pools = pools_of_store store;
      epochs;
      chains;
      snap;
      parts;
      journaled = journal <> None;
      fitted = Option.is_none buffers;
    }
  in
  fit_buffers st;
  let t = make ?stopwords ?stem vfs (Mneme_backend st) dict doc_lengths in
  t.next_doc_id <- max t.next_doc_id snap.sn_next_doc;
  t.live_meta <- snap.sn_meta;
  t

let backend_name t = match t.backend with Btree_backend _ -> "btree" | Mneme_backend _ -> "mneme"

(* ------------------------------------------------------------------ *)
(* Record access                                                       *)

let chain st term = Option.value ~default:[] (Hashtbl.find_opt st.chains term)

(* A chain's chunks as stored, oldest first; [None] if one of them
   resolves to no object.  An inline chunk is read from the snapshot
   that names it, with no store read: its immutable bytes are handed out
   as they are, so no reader may mutate what a chain read returns. *)
let read_chain st chunks =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | Inline s :: rest -> go (Bytes.unsafe_of_string s :: acc) rest
    | Object oid :: rest -> (
      match Mneme.Store.get_opt st.pools.store oid with
      | Some b -> go (b :: acc) rest
      | None -> None)
  in
  go [] chunks

(* A term's stored record as chunks, oldest first; [] when it has none.
   The B-tree holds one. *)
let fetch_chunks t entry =
  match t.backend with
  | Btree_backend tree -> Option.to_list (Btree.lookup tree entry.Inquery.Dictionary.id)
  | Mneme_backend st ->
    Option.value ~default:[] (read_chain st (chain st entry.Inquery.Dictionary.term))

let cow_pool st size =
  match Partition.classify size with
  | Partition.Small -> st.pools.small
  | Partition.Medium -> st.pools.medium
  | Partition.Large -> st.pools.large

(* Mneme follows the copy-on-write discipline: a {e new} object is
   always allocated, in the size class of its own bytes, and the objects
   it replaces are retired, never overwritten or freed — readers pinned
   to earlier epochs keep fetching them untouched until {!gc} proves no
   pin can reach them. *)
let allocate ?pool st bytes =
  let size = Bytes.length bytes in
  let pool = match pool with Some pool -> pool | None -> cow_pool st size in
  let oid = Mneme.Store.allocate pool bytes in
  Mneme.Epoch.born st.epochs ~oid ~size;
  oid

(* A new chunk: inline up to [inline_max] bytes, else an object. *)
let new_chunk st bytes =
  if Bytes.length bytes <= inline_max then Inline (Bytes.to_string bytes)
  else Object (allocate st bytes)

(* Replace [entry]'s whole record with [record], or remove it on [None].
   The B-tree replaces in place (a removed record no longer counts as
   attached); Mneme retires every object chunk and starts a one-chunk
   chain. *)
let rewrite_record t entry record =
  match t.backend with
  | Btree_backend tree -> (
    match record with
    | Some r -> Btree.insert tree entry.Inquery.Dictionary.id r
    | None ->
      ignore (Btree.delete tree entry.Inquery.Dictionary.id);
      entry.Inquery.Dictionary.locator <- -1)
  | Mneme_backend st -> (
    let term = entry.Inquery.Dictionary.term in
    List.iter
      (function Object oid -> Mneme.Epoch.retired st.epochs ~oid | Inline _ -> ())
      (chain st term);
    match record with
    | Some r -> Hashtbl.replace st.chains term [ new_chunk st r ]
    | None -> Hashtbl.remove st.chains term)

(* ------------------------------------------------------------------ *)
(* Epoch publication                                                   *)

(* Build, seal and install the next epoch's root.  Called with the term
   writes already issued; everything here still rides the same journal
   batch, so the CRC-sealed commit record is the single point at which
   the new epoch — objects, directory, header root switch — becomes
   real.  A crash anywhere before the log fsync recovers to the old
   epoch in full; anywhere after, to the new epoch in full.

   [terms] and [docs] name everything the batch touched: the new
   directory is the previous one with those entries brought up to date
   (the persistent maps share the rest), and a delta part encodes just
   the ones that changed, a chain that extends the previous one as an
   extension.  A base part encodes the whole directory and retires every
   part of the chain it replaces. *)
let install_root t st ~terms ~docs =
  let epoch = Mneme.Epoch.latest st.epochs + 1 in
  let prev = st.snap in
  let entries =
    List.fold_left
      (fun acc term ->
        let was = Tmap.find_opt term prev.sn_terms in
        let now =
          Option.map
            (fun ti_chunks ->
              let e = Option.get (Inquery.Dictionary.find t.dict term) in
              { ti_chunks; ti_df = e.Inquery.Dictionary.df; ti_cf = e.Inquery.Dictionary.cf })
            (Hashtbl.find_opt st.chains term)
        in
        let kept =
          match (was, now) with
          | Some w, Some n when extends w.ti_chunks n.ti_chunks -> List.length w.ti_chunks
          | _ -> 0
        in
        if now = was then acc else Tmap.add term (Option.map (fun ti -> (ti, kept)) now) acc)
      Tmap.empty terms
  in
  let added, removed =
    List.fold_left
      (fun (added, removed) doc ->
        match (Imap.mem doc prev.sn_doc_lens, Hashtbl.find_opt t.doc_lens doc) with
        | false, Some len -> (Imap.add doc len added, removed)
        | true, None -> (added, Iset.add doc removed)
        | _ -> (added, removed))
      (Imap.empty, Iset.empty) docs
  in
  let snap =
    {
      sn_epoch = epoch;
      sn_terms =
        Tmap.fold
          (fun term now acc ->
            match now with Some (ti, _) -> Tmap.add term ti acc | None -> Tmap.remove term acc)
          entries prev.sn_terms;
      sn_doc_lens = Imap.fold Imap.add added (Iset.fold Imap.remove removed prev.sn_doc_lens);
      sn_total_len = t.total_len;
      sn_next_doc = t.next_doc_id;
      sn_meta = t.live_meta;
    }
  in
  let base = st.parts = [] || List.length st.parts = max_chunks in
  let payload =
    if base then
      encode_part ~earlier:[]
        ~entries:(Tmap.map (fun ti -> Some (ti, 0)) snap.sn_terms)
        ~added:snap.sn_doc_lens ~removed:Iset.empty snap
    else encode_part ~earlier:st.parts ~entries ~added ~removed snap
  in
  (* A delta goes to its base's pool, whose size class follows the
     directory rather than the change: a one-document delta of a large
     directory then stays out of the medium pool's packed segments, and
     the records there, which every deletion sweep reads, span fewer
     segments (the dynamic-update ablation deletes in 5,667 ms/doc, and
     in 6,090 with each delta placed by its own size). *)
  let pool =
    match st.parts with
    | b :: _ when not base -> Mneme.Store.pool_of_oid st.pools.store b
    | _ -> None
  in
  let root = allocate ?pool st (Mneme.Epoch.seal ~epoch payload) in
  if base then List.iter (fun oid -> Mneme.Epoch.retired st.epochs ~oid) st.parts;
  Mneme.Store.set_root st.pools.store ~epoch ~root:(Some root);
  (snap, if base then [ root ] else st.parts @ [ root ])

(* Run one mutation — [f] returns the terms and documents it touched —
   and publish the epoch it creates.  Journaled: the whole thing — COW
   writes, sealed root, finalized tables and header — is one
   transaction.  Unjournaled: the epoch is published in memory and
   persists at the next [flush] (no crash-safety claim, exactly as
   before).  If the mutation raises (journaled case: the batch aborts),
   the in-memory handle may disagree with the store — discard it and
   re-open, the {!Mneme.Store.transact} contract. *)
let mutate t st f =
  let body () =
    let terms, docs = f () in
    install_root t st ~terms ~docs
  in
  let snap, parts =
    if st.journaled then
      Mneme.Store.transact st.pools.store (fun () ->
          let r = body () in
          Mneme.Store.finalize st.pools.store;
          r)
    else body ()
  in
  ignore (Mneme.Epoch.publish st.epochs);
  st.snap <- snap;
  st.parts <- parts;
  fit_buffers st;
  (* Publication hooks fire only once the new epoch is installed and the
     in-memory handle serves it — the point at which anything cached
     under an older epoch is officially stale.  Every mutation, an
     {!Ingest} fold among them, is a [fold_batch] and fires them.  Hook
     exceptions propagate: the epoch is already durable, and a cache
     that cannot invalidate must not fail silently. *)
  List.iter (fun hook -> hook ~epoch:snap.sn_epoch) t.publish_hooks

(* ------------------------------------------------------------------ *)
(* Mutation                                                            *)

let normalise t term = Inquery.Stopwords.normalize ?stopwords:t.stopwords ~stem:t.stem term

(* Tokenize [text] through the index's stopword/stemming configuration:
   per-term ascending position lists in first-occurrence order, plus the
   indexed length — exactly what one document contributes, whether it is
   applied here or buffered by {!Ingest} first. *)
let tokenize t text =
  let positions = Hashtbl.create 32 in
  let order = ref [] in
  let indexed =
    Inquery.Lexer.fold_tokens text ~init:0 ~f:(fun n term position ->
        match normalise t term with
        | None -> n
        | Some term ->
          (match Hashtbl.find_opt positions term with
          | Some ps -> Hashtbl.replace positions term (position :: ps)
          | None ->
            Hashtbl.replace positions term [ position ];
            order := term :: !order);
          n + 1)
  in
  (List.rev_map (fun term -> (term, List.rev (Hashtbl.find positions term))) !order, indexed)

(* Add one term's canonical record of new postings (every document
   beyond the stored record) to its inverted list.  Under Mneme it
   becomes one more chunk and no stored chunk is read; a full chain is
   consolidated with it into one record instead. *)
let apply_postings t term addition =
  let entry = Inquery.Dictionary.intern t.dict term in
  (match t.backend with
  | Mneme_backend st when List.length (chain st term) < max_chunks ->
    Hashtbl.replace st.chains term (chain st term @ [ new_chunk st addition ])
  | Btree_backend _ | Mneme_backend _ ->
    rewrite_record t entry (Inquery.Postings.concat (fetch_chunks t entry @ [ addition ])));
  let df, cf = Inquery.Postings.stats addition in
  entry.Inquery.Dictionary.df <- entry.Inquery.Dictionary.df + df;
  entry.Inquery.Dictionary.cf <- entry.Inquery.Dictionary.cf + cf

(* Remove a set of documents in one dictionary sweep, and return the
   terms it rewrote.  No forward index: every inverted list must be
   examined — the cost structure the paper describes for deletion. *)
let delete_docs t docs =
  let rewritten = ref [] in
  let doomed = Hashtbl.create (List.length docs) in
  List.iter
    (fun doc ->
      match Hashtbl.find_opt t.doc_lens doc with
      | Some len -> Hashtbl.replace doomed doc len
      | None -> ())
    docs;
  if Hashtbl.length doomed > 0 then begin
    Inquery.Dictionary.iter t.dict (fun entry ->
        let chunks = fetch_chunks t entry in
        let df = ref 0 and cf = ref 0 in
        List.iter
          (fun chunk ->
            Inquery.Postings.fold_docs chunk ~init:() ~f:(fun () ~doc ~tf ->
                if Hashtbl.mem doomed doc then begin
                  incr df;
                  cf := !cf + tf
                end))
          chunks;
        if !df > 0 then begin
          rewritten := entry.Inquery.Dictionary.term :: !rewritten;
          rewrite_record t entry
            (Inquery.Postings.concat ~keep:(fun d -> not (Hashtbl.mem doomed d)) chunks);
          entry.Inquery.Dictionary.df <- entry.Inquery.Dictionary.df - !df;
          entry.Inquery.Dictionary.cf <- entry.Inquery.Dictionary.cf - !cf
        end);
    Hashtbl.iter
      (fun doc len ->
        Hashtbl.remove t.doc_lens doc;
        t.total_len <- t.total_len - len)
      doomed
  end;
  !rewritten

(* The one mutation: [add_document] and [delete_document] are
   one-document batches, and an {!Ingest} fold is a batch of many. *)
let fold_batch t ?(meta = []) ~docs ~postings ~deletes () =
  let body () =
    List.iter
      (fun (doc, len) ->
        if Hashtbl.mem t.doc_lens doc then
          invalid_arg "Live_index.fold_batch: document already present";
        Hashtbl.replace t.doc_lens doc len;
        t.total_len <- t.total_len + len;
        if doc >= t.next_doc_id then t.next_doc_id <- doc + 1)
      docs;
    List.iter (fun (term, record) -> apply_postings t term record) postings;
    let rewritten = delete_docs t deletes in
    List.iter (fun (k, v) -> t.live_meta <- Tmap.add k v t.live_meta) meta;
    (List.rev_append (List.map fst postings) rewritten, List.rev_append (List.map fst docs) deletes)
  in
  match t.backend with
  | Btree_backend _ -> ignore (body ())
  | Mneme_backend st -> mutate t st body

let add_document t ?doc_id text =
  let doc =
    match doc_id with
    | None -> t.next_doc_id
    | Some id ->
      if id < t.next_doc_id then
        invalid_arg "Live_index.add_document: id must exceed all existing ids";
      id
  in
  let terms, indexed = tokenize t text in
  fold_batch t
    ~docs:[ (doc, indexed) ]
    ~postings:(List.map (fun (term, ps) -> (term, Inquery.Postings.encode [ (doc, ps) ])) terms)
    ~deletes:[] ();
  doc

let delete_document t doc =
  let present = Hashtbl.mem t.doc_lens doc in
  if present then fold_batch t ~docs:[] ~postings:[] ~deletes:[ doc ] ();
  present

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

let document_count t = Hashtbl.length t.doc_lens
let contains_document t doc = Hashtbl.mem t.doc_lens doc

let avg_doc_length t =
  let n = document_count t in
  if n = 0 then 0.0 else float_of_int t.total_len /. float_of_int n

let doc_lengths t =
  Hashtbl.fold (fun d l acc -> (d, l) :: acc) t.doc_lens [] |> List.sort compare

let next_doc t = t.next_doc_id
let meta t = Tmap.bindings t.live_meta
let normalise_term t term = normalise t term

(* ------------------------------------------------------------------ *)
(* Pins                                                                *)

type pin = { p_pin : Mneme.Epoch.pin; p_snap : snapshot }

let mneme_state t =
  match t.backend with
  | Btree_backend _ -> invalid_arg "Live_index: Mneme backend only"
  | Mneme_backend st -> st

let epoch t =
  match t.backend with Btree_backend _ -> 0 | Mneme_backend st -> Mneme.Epoch.latest st.epochs

let on_publish t hook = t.publish_hooks <- t.publish_hooks @ [ hook ]

let pin t =
  let st = mneme_state t in
  { p_pin = Mneme.Epoch.pin st.epochs; p_snap = st.snap }

let release t p = Mneme.Epoch.release (mneme_state t).epochs p.p_pin

let pin_directory p =
  Tmap.fold (fun term ti acc -> (term, ti.ti_df, ti.ti_cf) :: acc) p.p_snap.sn_terms []
  |> List.rev

let pinned_epochs t =
  match t.backend with Btree_backend _ -> [] | Mneme_backend st -> Mneme.Epoch.pinned st.epochs

(* ------------------------------------------------------------------ *)
(* Views and ranking                                                   *)

type view = {
  chunks : string -> bytes list;
  keep : (int -> bool) option;
  doc_len : int -> int option;
  n_docs : int;
  total_len : int;
  next_doc : int;
}

let record view term = Inquery.Postings.concat ?keep:view.keep (view.chunks term)

(* Terms are already normalised: stemming is not idempotent, so
   normalising again here would miss. *)
let latest t =
  {
    chunks =
      (fun term ->
        match Inquery.Dictionary.find t.dict term with None -> [] | Some e -> fetch_chunks t e);
    keep = None;
    doc_len = Hashtbl.find_opt t.doc_lens;
    n_docs = Hashtbl.length t.doc_lens;
    total_len = t.total_len;
    next_doc = t.next_doc_id;
  }

let term_record t term = Option.bind (normalise t term) (record (latest t))

(* The pinned snapshot's directory and statistics, with chunks read
   through the pinned chains, which the epoch pin keeps alive. *)
let pinned t p =
  let st = mneme_state t and snap = p.p_snap in
  {
    chunks =
      (fun term ->
        match Tmap.find_opt term snap.sn_terms with
        | Some ti -> Option.value ~default:[] (read_chain st ti.ti_chunks)
        | None -> []);
    keep = None;
    doc_len = (fun d -> Imap.find_opt d snap.sn_doc_lens);
    n_docs = Imap.cardinal snap.sn_doc_lens;
    total_len = snap.sn_total_len;
    next_doc = snap.sn_next_doc;
  }

let rank ?(top_k = 10) t view query =
  let q = Inquery.Query.parse_exn query in
  (* Every record is read before evaluation, once per distinct
     normalised term.  The evaluators score with each record's own
     header statistics, so the per-query dictionary only names the terms
     that have one: a handful, hence its few buckets. *)
  let dict = Inquery.Dictionary.create ~initial_buckets:16 () in
  let records = Hashtbl.create 8 in
  List.iter
    (fun w ->
      match normalise t w with
      | Some w when not (Hashtbl.mem records w) ->
        let found = record view w in
        Hashtbl.replace records w found;
        if Option.is_some found then ignore (Inquery.Dictionary.intern dict w)
      | _ -> ())
    (Inquery.Query.terms q);
  let source =
    {
      Inquery.Infnet.fetch = (fun e -> Hashtbl.find records e.Inquery.Dictionary.term);
      n_docs = max 1 view.n_docs;
      max_doc_id = max 0 (view.next_doc - 1);
      avg_doc_len =
        (if view.n_docs = 0 then 0.0
         else float_of_int view.total_len /. float_of_int view.n_docs);
      doc_len = (fun d -> Option.value (view.doc_len d) ~default:0);
    }
  in
  let beliefs, _ = Inquery.Infnet.eval source dict ?stopwords:t.stopwords ~stem:t.stem q in
  (* Deleted documents keep their slots; mask every document outside the
     view. *)
  Array.iteri
    (fun d b ->
      if b > Inquery.Infnet.default_belief && view.doc_len d = None then
        beliefs.(d) <- Inquery.Infnet.default_belief)
    beliefs;
  Inquery.Ranking.top_k beliefs ~k:top_k

let search ?top_k t query = rank ?top_k t (latest t) query

(* ------------------------------------------------------------------ *)
(* Collection                                                          *)

let gc t =
  let st = mneme_state t in
  let store = st.pools.store in
  let collect () =
    (* Pass each size through, so the store need not fault the
       segment to read it.  Only objects [wrap_mneme] adopted were
       censused without one (as 0; every object this index writes is at
       least a byte long), and those the store still reads. *)
    Mneme.Epoch.collect st.epochs ~reclaim:(fun ~oid ~size ->
        Mneme.Store.delete ?size:(if size > 0 then Some size else None) store oid)
  in
  if st.journaled then
    Mneme.Store.transact store (fun () ->
        let stats = collect () in
        Mneme.Store.finalize store;
        stats)
  else collect ()

let stranded_bytes t =
  match t.backend with
  | Btree_backend _ -> 0
  | Mneme_backend st -> Mneme.Epoch.stranded_bytes st.epochs

let mneme_store t =
  match t.backend with
  | Btree_backend _ -> None
  | Mneme_backend st -> Some st.pools.store

let root_parts t = match t.backend with Btree_backend _ -> [] | Mneme_backend st -> st.parts

let chains t =
  match t.backend with
  | Btree_backend _ -> []
  | Mneme_backend st ->
    Tmap.fold (fun term ti acc -> (term, ti.ti_chunks) :: acc) st.snap.sn_terms [] |> List.rev

let directory t =
  match t.backend with
  | Btree_backend _ ->
    let acc = ref [] in
    Inquery.Dictionary.iter t.dict (fun e ->
        if e.Inquery.Dictionary.df > 0 then
          acc :=
            (e.Inquery.Dictionary.term, e.Inquery.Dictionary.df, e.Inquery.Dictionary.cf)
            :: !acc);
    List.sort compare !acc
  | Mneme_backend st ->
    Tmap.fold (fun term ti acc -> (term, ti.ti_df, ti.ti_cf) :: acc) st.snap.sn_terms []
    |> List.rev

(* ------------------------------------------------------------------ *)
(* Auditing                                                            *)

let audit t =
  let problems = ref [] in
  let flag where what = problems := (where, what) :: !problems in
  (* Deep-validate every record and cross-check df/cf against the
     dictionary, via the catalog's fsck pass. *)
  let doc_lens = Array.make (max 1 t.next_doc_id) 0 in
  Hashtbl.iter (fun d l -> if d < Array.length doc_lens then doc_lens.(d) <- l) t.doc_lens;
  let catalog =
    {
      Catalog.dict = t.dict;
      n_docs = document_count t;
      doc_lens;
      collection_bytes = t.total_len;
    }
  in
  (* A chain is read as its concatenation, so each chunk, inline or an
     object, is validated on its own first: re-encoding would hide a flaw
     inside one. *)
  let fetch entry =
    let chunks = fetch_chunks t entry in
    List.iteri
      (fun i chunk ->
        match Inquery.Postings.validate chunk with
        | Ok () -> ()
        | Error e -> failwith (Printf.sprintf "chunk %d: %s" i e))
      chunks;
    Inquery.Postings.concat chunks
  in
  List.iter
    (fun (term, what) -> flag ("term " ^ term) what)
    (Catalog.verify_records catalog ~fetch);
  (* Aggregate statistics must agree with the per-document table. *)
  let sum = Hashtbl.fold (fun _ l acc -> acc + l) t.doc_lens 0 in
  if sum <> t.total_len then
    flag "totals" (Printf.sprintf "doc lengths sum to %d but total_len is %d" sum t.total_len);
  Hashtbl.iter
    (fun d _ ->
      if d >= t.next_doc_id then
        flag "totals" (Printf.sprintf "document %d at or past next_doc_id %d" d t.next_doc_id))
    t.doc_lens;
  Inquery.Dictionary.iter t.dict (fun e ->
      let term = e.Inquery.Dictionary.term in
      if e.Inquery.Dictionary.df < 0 || e.Inquery.Dictionary.cf < 0 then
        flag ("term " ^ term)
          (Printf.sprintf "negative statistics df=%d cf=%d" e.Inquery.Dictionary.df
             e.Inquery.Dictionary.cf);
      let attached =
        match t.backend with
        | Btree_backend _ -> e.Inquery.Dictionary.locator >= 0
        | Mneme_backend st -> Hashtbl.mem st.chains term
      in
      if e.Inquery.Dictionary.df = 0 && attached then
        flag ("term " ^ term) "df is 0 but a record is still attached");
  (* Mneme: the published snapshot must equal the latest view — any
     drift means an epoch was published from inconsistent state. *)
  (match t.backend with
  | Btree_backend _ -> ()
  | Mneme_backend st ->
    let snap = st.snap in
    let oids ch = String.concat "," (List.map string_of_int ch) in
    let chunks ch =
      String.concat ","
        (List.map
           (function
             | Object oid -> string_of_int oid
             | Inline s -> Printf.sprintf "%d inline bytes" (String.length s))
           ch)
    in
    Hashtbl.iter
      (fun term ch ->
        if ch = [] || List.length ch > max_chunks then
          flag ("term " ^ term) (Printf.sprintf "a chain of %d chunks" (List.length ch));
        let df, cf =
          match Inquery.Dictionary.find t.dict term with
          | Some e -> (e.Inquery.Dictionary.df, e.Inquery.Dictionary.cf)
          | None -> (-1, -1)
        in
        match Tmap.find_opt term snap.sn_terms with
        | None -> flag ("term " ^ term) "in the dictionary but not the published snapshot"
        | Some ti ->
          if ti.ti_chunks <> ch || ti.ti_df <> df || ti.ti_cf <> cf then
            flag ("term " ^ term)
              (Printf.sprintf "snapshot (chunks %s, df %d, cf %d) vs dictionary (%s, %d, %d)"
                 (chunks ti.ti_chunks) ti.ti_df ti.ti_cf (chunks ch) df cf))
      st.chains;
    if Tmap.cardinal snap.sn_terms <> Hashtbl.length st.chains then
      flag "snapshot"
        (Printf.sprintf "%d terms in the snapshot but %d live in the dictionary"
           (Tmap.cardinal snap.sn_terms) (Hashtbl.length st.chains));
    if Imap.cardinal snap.sn_doc_lens <> Hashtbl.length t.doc_lens then
      flag "snapshot"
        (Printf.sprintf "%d documents in the snapshot but %d live"
           (Imap.cardinal snap.sn_doc_lens) (Hashtbl.length t.doc_lens));
    Imap.iter
      (fun d l ->
        match Hashtbl.find_opt t.doc_lens d with
        | Some l' when l' = l -> ()
        | Some l' ->
          flag "snapshot" (Printf.sprintf "document %d length %d in snapshot, %d live" d l l')
        | None -> flag "snapshot" (Printf.sprintf "document %d only in snapshot" d))
      snap.sn_doc_lens;
    if snap.sn_total_len <> t.total_len then
      flag "snapshot"
        (Printf.sprintf "snapshot total length %d vs live %d" snap.sn_total_len t.total_len);
    if snap.sn_next_doc <> t.next_doc_id then
      flag "snapshot"
        (Printf.sprintf "snapshot next doc %d vs live %d" snap.sn_next_doc t.next_doc_id);
    if snap.sn_epoch <> Mneme.Epoch.latest st.epochs then
      flag "snapshot"
        (Printf.sprintf "snapshot epoch %d vs manager %d" snap.sn_epoch
           (Mneme.Epoch.latest st.epochs));
    if not (Tmap.equal String.equal snap.sn_meta t.live_meta) then
      flag "snapshot" "snapshot metadata disagrees with the live view";
    (* The root chain on disk must decode to the published snapshot. *)
    if st.parts <> [] then
      match read_root st.pools.store with
      | exception Mneme.Store.Corrupt msg -> flag "root" msg
      | disk, parts ->
        if parts <> st.parts then
          flag "root"
            (Printf.sprintf "chain on disk %s, published %s" (oids parts) (oids st.parts));
        if
          disk.sn_epoch <> snap.sn_epoch
          || (not (Tmap.equal ( = ) disk.sn_terms snap.sn_terms))
          || (not (Imap.equal ( = ) disk.sn_doc_lens snap.sn_doc_lens))
          || disk.sn_total_len <> snap.sn_total_len
          || disk.sn_next_doc <> snap.sn_next_doc
          || not (Tmap.equal String.equal disk.sn_meta snap.sn_meta)
        then flag "root" "the chain on disk decodes to another directory than the published one");
  List.rev !problems

(* ------------------------------------------------------------------ *)
(* Persistence                                                         *)

let flush t =
  match t.backend with
  | Btree_backend tree -> Btree.flush tree
  | Mneme_backend st ->
    if st.journaled then
      Mneme.Store.transact st.pools.store (fun () -> Mneme.Store.finalize st.pools.store)
    else Mneme.Store.finalize st.pools.store

let compact t ~file =
  match t.backend with
  | Btree_backend _ -> invalid_arg "Live_index.compact: only the Mneme backend compacts"
  | Mneme_backend st ->
    if st.journaled then
      invalid_arg "Live_index.compact: disable the journal before compacting";
    (* Reclaim what no pin needs first, so the stale space does not
       survive into the new file; pinned-epoch objects are still live
       slots and are carried over — compaction never breaks a pin. *)
    ignore (gc t);
    let store = st.pools.store in
    Mneme.Store.finalize store;
    let dst = Mneme.Store.compact store ~file in
    (* Carry each capacity over to the new store's pools; fitted ones
       are then re-sized to the compacted segments. *)
    List.iter
      (fun name ->
        let capacity =
          Option.fold ~none:0 ~some:Mneme.Buffer_pool.capacity
            (Mneme.Store.buffer (Mneme.Store.pool store name))
        in
        Mneme.Store.attach_buffer (Mneme.Store.pool dst name)
          (Mneme.Buffer_pool.create ~name ~capacity ()))
      [ "small"; "medium"; "large" ];
    st.pools <- pools_of_store dst;
    fit_buffers st

type space = { file_bytes : int; reclaimable_bytes : int }

let space t =
  match t.backend with
  | Btree_backend tree ->
    { file_bytes = Btree.file_size tree; reclaimable_bytes = Btree.free_bytes tree }
  | Mneme_backend st ->
    {
      file_bytes = Mneme.Store.file_size st.pools.store;
      reclaimable_bytes =
        Mneme.Store.wasted_bytes st.pools.store + Mneme.Epoch.stranded_bytes st.epochs;
    }
