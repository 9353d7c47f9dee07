(* Crash-safe online ingestion: an in-memory postings write buffer
   absorbing document additions, unioned with the on-disk Mneme index
   at query time, drained by a budgeted tiered merge.

   Durability protocol (exactly-once):

   - Every accepted operation is framed into a write-ahead log and the
     log fsynced {e before} the acknowledgement returns.  The WAL is
     append-only; [Vfs.fsync] flushes dirty blocks in ascending order,
     so a crash leaves a durable prefix and the per-record CRC32 cuts
     the torn tail — an unacked document is absent or wholly present,
     never half-tokenized.
   - A merge step folds the oldest sealed memory segments into the
     journaled live index with {e one} [Live_index.fold_batch] call:
     new postings objects, the updated document table, any pending
     deletions, and the new WAL frontier ([ingest_seq], sealed into the
     root's metadata) all commit as a single epoch publication.  A
     crash at any physical I/O recovers to wholly the old frontier or
     wholly the new one.
   - Recovery re-opens the live index, reads [ingest_seq] from the
     sealed root, and replays every WAL record past it through the
     ordinary buffering path.  Records at or below the frontier are
     already on disk and are dropped — no document is applied twice.

   The buffer itself follows Asadi & Lin: one growing delta-compressed
   run per term (v-byte doc-gap/tf/position-gaps, the postings v1 body),
   sealed into immutable segments at a byte threshold and combined
   tier-by-tier in memory, so a fold writes few, large records. *)

type config = {
  buffer_budget : int;
  seal_bytes : int;
  tier_fanout : int;
}

let default_config = { buffer_budget = 1 lsl 20; seal_bytes = 16 * 1024; tier_fanout = 4 }

let check_config c =
  if c.buffer_budget < 1 then invalid_arg "Ingest: buffer_budget must be positive";
  if c.seal_bytes < 1 then invalid_arg "Ingest: seal_bytes must be positive";
  if c.tier_fanout < 2 then invalid_arg "Ingest: tier_fanout must be at least 2"

type ack = Acked of { doc : int; seq : int } | Overloaded

(* One term's growing run: the v1 record body (doc gap, tf, position
   gaps — all v-byte), plus the header statistics to prepend when the
   run is materialized. *)
type run = {
  mutable r_last_doc : int;
  mutable r_df : int;
  mutable r_cf : int;
  r_buf : Buffer.t;
}

(* An immutable sealed segment: per-term materialized records (valid
   postings records in their own right) and the documents they cover,
   both ascending. *)
type segment = {
  sg_tier : int;
  sg_seq_lo : int;
  sg_seq_hi : int;
  sg_docs : (int * int) array;
  sg_runs : (string * bytes) array;
  sg_bytes : int;
}

type active = {
  a_runs : (string, run) Hashtbl.t;
  mutable a_docs : (int * int) list; (* newest first *)
  mutable a_bytes : int;
  mutable a_seq_lo : int; (* -1 while empty *)
  mutable a_seq_hi : int;
}

type stats = {
  docs_absorbed : int;
  deletes_absorbed : int;
  overloads : int;
  seals : int;
  folds : int;
  folded_docs : int;
  folded_bytes : int;
  wal_bytes : int;
  replayed_ops : int;
}

type t = {
  vfs : Vfs.t;
  live : Live_index.t;
  wal : Vfs.file;
  config : config;
  mutable next_seq : int;
  mutable merged_seq : int; (* highest seq folded into the disk index *)
  mutable next_doc : int;
  active : active;
  mutable sealed : segment list; (* oldest first *)
  tombs : (int, int) Hashtbl.t; (* doc -> deleting op's seq *)
  union : (int, int) Hashtbl.t; (* doc -> indexed length, the serving view *)
  mutable union_len : int;
  mutable stats : stats;
}

let stats t = t.stats

let meta_key = "ingest_seq"
let wal_file file = file ^ ".wal"
let journal_file file = file ^ ".log"

(* ------------------------------------------------------------------ *)
(* Write-ahead log                                                     *)

(* Record framing: [u32 length] [payload] [u32 CRC32 of payload].
   Payload: [op byte] [varint seq] [varint doc] and, for additions,
   [length-prefixed text]. *)

type op = Op_add of { seq : int; doc : int; text : string } | Op_delete of { seq : int; doc : int }

let op_seq = function Op_add { seq; _ } -> seq | Op_delete { seq; _ } -> seq

let encode_op op =
  let b = Buffer.create 64 in
  (match op with
  | Op_add { seq; doc; text } ->
    Buffer.add_char b '\x01';
    Util.Varint.encode b seq;
    Util.Varint.encode b doc;
    Util.Bin.buf_string b text
  | Op_delete { seq; doc } ->
    Buffer.add_char b '\x02';
    Util.Varint.encode b seq;
    Util.Varint.encode b doc);
  Buffer.to_bytes b

let decode_op payload =
  match Bytes.get payload 0 with
  | '\x01' ->
    let seq, p = Util.Varint.decode payload ~pos:1 in
    let doc, p = Util.Varint.decode payload ~pos:p in
    let text, _ = Util.Bin.get_string payload p in
    Op_add { seq; doc; text }
  | '\x02' ->
    let seq, p = Util.Varint.decode payload ~pos:1 in
    let doc, _ = Util.Varint.decode payload ~pos:p in
    Op_delete { seq; doc }
  | _ -> failwith "Ingest: unknown WAL op"

let wal_append t op =
  let payload = encode_op op in
  let frame = Buffer.create (Bytes.length payload + 8) in
  Util.Bin.buf_u32 frame (Bytes.length payload);
  Buffer.add_bytes frame payload;
  Util.Bin.buf_u32 frame (Util.Crc32.digest_bytes payload);
  let frame = Buffer.to_bytes frame in
  ignore (Vfs.append t.wal frame);
  (* The fsync is the acknowledgement point: on return the record is
     crash-durable; a crash mid-flush leaves at worst a torn tail the
     CRC rejects on replay. *)
  Vfs.fsync t.wal;
  t.stats <- { t.stats with wal_bytes = t.stats.wal_bytes + Bytes.length frame }

(* Scan the WAL's valid prefix: every record whose frame fits and whose
   CRC verifies, stopping at the first violation (the torn tail of a
   crashed append, or the zero blocks an unflushed tail reads as).
   Returns the ops in log order and the byte length of the prefix. *)
let wal_scan wal =
  let size = Vfs.size wal in
  let ops = ref [] in
  let pos = ref 0 in
  (try
     while !pos + 8 <= size do
       let hdr = Vfs.read wal ~off:!pos ~len:4 in
       let len = Util.Bin.get_u32 hdr 0 in
       if len = 0 || !pos + 8 + len > size then raise Exit;
       let payload = Vfs.read wal ~off:(!pos + 4) ~len in
       let crc = Util.Bin.get_u32 (Vfs.read wal ~off:(!pos + 4 + len) ~len:4) 0 in
       if crc <> Util.Crc32.digest_bytes payload then raise Exit;
       (match decode_op payload with
       | op -> ops := op :: !ops
       | exception _ -> raise Exit);
       pos := !pos + 8 + len
     done
   with Exit -> ());
  (List.rev !ops, !pos)

(* ------------------------------------------------------------------ *)
(* The memory buffer                                                   *)

let fresh_active () =
  { a_runs = Hashtbl.create 64; a_docs = []; a_bytes = 0; a_seq_lo = -1; a_seq_hi = -1 }

let active_empty t = t.active.a_docs = []

(* Per-document bookkeeping tax in [a_bytes]: the doc-table entry. *)
let doc_tax = 16

let buffered_bytes t =
  t.active.a_bytes + List.fold_left (fun acc sg -> acc + sg.sg_bytes) 0 t.sealed

let buffered_docs t =
  List.length t.active.a_docs
  + List.fold_left (fun acc sg -> acc + Array.length sg.sg_docs) 0 t.sealed

let segments t = List.map (fun sg -> (sg.sg_tier, Array.length sg.sg_docs, sg.sg_bytes)) t.sealed

(* Materialize a run as a v1 postings record: header statistics, then
   the body exactly as it grew. *)
let materialize run =
  let b = Buffer.create (Buffer.length run.r_buf + 8) in
  Util.Varint.encode b run.r_df;
  Util.Varint.encode b run.r_cf;
  Buffer.add_buffer b run.r_buf;
  Buffer.to_bytes b

(* The [keep] filter that drops tombstoned documents; none when no
   tombstone is pending. *)
let tombstone_filter tombs =
  if Hashtbl.length tombs = 0 then None else Some (fun doc -> not (Hashtbl.mem tombs doc))

(* Per term, sorted by term, the concatenation of consecutive segments'
   runs, oldest first, less the documents [keep] rejects; terms left
   with no document are omitted.  Consecutive segments cover disjoint
   ascending document ranges, so each term's runs concatenate in one
   pass. *)
let concat_runs ?keep segs =
  let runs = Hashtbl.create 64 in
  List.iter
    (fun sg ->
      Array.iter
        (fun (term, record) ->
          Hashtbl.replace runs term
            (record :: Option.value ~default:[] (Hashtbl.find_opt runs term)))
        sg.sg_runs)
    segs;
  Hashtbl.fold
    (fun term rev_runs acc ->
      match Inquery.Postings.concat ?keep (List.rev rev_runs) with
      | Some record -> (term, record) :: acc
      | None -> acc)
    runs []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Combine [fanout] consecutive same-tier segments into one of the next
   tier — pure in-memory work, no I/O. *)
let merge_segments group =
  let tier = 1 + (List.hd group).sg_tier in
  let docs = Array.concat (List.map (fun sg -> sg.sg_docs) group) in
  let run_list = concat_runs group in
  let bytes =
    List.fold_left (fun acc (_, r) -> acc + Bytes.length r) 0 run_list
    + (Array.length docs * doc_tax)
  in
  {
    sg_tier = tier;
    sg_seq_lo = (List.hd group).sg_seq_lo;
    sg_seq_hi = (List.rev group |> List.hd).sg_seq_hi;
    sg_docs = docs;
    sg_runs = Array.of_list run_list;
    sg_bytes = bytes;
  }

(* Collapse every consecutive same-tier group that has reached the
   fanout, repeating until no group is full. *)
let rec tier_combine t =
  let fanout = t.config.tier_fanout in
  let rec scan acc = function
    | [] -> None
    | sg :: rest ->
      let same, others =
        let rec take group = function
          | x :: xs when x.sg_tier = sg.sg_tier && List.length group < fanout ->
            take (x :: group) xs
          | xs -> (List.rev group, xs)
        in
        take [ sg ] rest
      in
      if List.length same = fanout then Some (List.rev acc, same, others)
      else scan (sg :: acc) rest
  in
  match scan [] t.sealed with
  | None -> ()
  | Some (before, group, after) ->
    t.sealed <- before @ [ merge_segments group ] @ after;
    tier_combine t

let seal t =
  if not (active_empty t) then begin
    let a = t.active in
    let terms =
      Hashtbl.fold (fun term run acc -> (term, materialize run) :: acc) a.a_runs []
      |> List.sort compare
    in
    let seg =
      {
        sg_tier = 0;
        sg_seq_lo = a.a_seq_lo;
        sg_seq_hi = a.a_seq_hi;
        sg_docs = Array.of_list (List.rev a.a_docs);
        sg_runs = Array.of_list terms;
        sg_bytes = a.a_bytes;
      }
    in
    t.sealed <- t.sealed @ [ seg ];
    Hashtbl.reset a.a_runs;
    a.a_docs <- [];
    a.a_bytes <- 0;
    a.a_seq_lo <- -1;
    a.a_seq_hi <- -1;
    t.stats <- { t.stats with seals = t.stats.seals + 1 };
    tier_combine t
  end

(* Absorb one (already WAL-durable) addition into the active segment. *)
let buffer_add t ~seq ~doc text =
  let terms, indexed = Live_index.tokenize t.live text in
  let a = t.active in
  if a.a_seq_lo < 0 then a.a_seq_lo <- seq;
  a.a_seq_hi <- seq;
  List.iter
    (fun (term, positions) ->
      let run =
        match Hashtbl.find_opt a.a_runs term with
        | Some r -> r
        | None ->
          let r = { r_last_doc = -1; r_df = 0; r_cf = 0; r_buf = Buffer.create 32 } in
          Hashtbl.replace a.a_runs term r;
          a.a_bytes <- a.a_bytes + String.length term;
          r
      in
      let before = Buffer.length run.r_buf in
      let gap = if run.r_last_doc < 0 then doc else doc - run.r_last_doc in
      Util.Varint.encode run.r_buf gap;
      Util.Varint.encode run.r_buf (List.length positions);
      let last_pos = ref (-1) in
      List.iter
        (fun p ->
          let pgap = if !last_pos < 0 then p else p - !last_pos in
          last_pos := p;
          Util.Varint.encode run.r_buf pgap)
        positions;
      run.r_last_doc <- doc;
      run.r_df <- run.r_df + 1;
      run.r_cf <- run.r_cf + List.length positions;
      a.a_bytes <- a.a_bytes + (Buffer.length run.r_buf - before))
    terms;
  a.a_docs <- (doc, indexed) :: a.a_docs;
  a.a_bytes <- a.a_bytes + doc_tax;
  Hashtbl.replace t.union doc indexed;
  t.union_len <- t.union_len + indexed;
  if doc >= t.next_doc then t.next_doc <- doc + 1;
  if a.a_bytes >= t.config.seal_bytes then seal t

let buffer_delete t ~seq ~doc =
  match Hashtbl.find_opt t.union doc with
  | None -> false
  | Some len ->
    Hashtbl.remove t.union doc;
    t.union_len <- t.union_len - len;
    Hashtbl.replace t.tombs doc seq;
    true

(* ------------------------------------------------------------------ *)
(* The public write path                                               *)

let add_document t text =
  if buffered_bytes t >= t.config.buffer_budget then begin
    t.stats <- { t.stats with overloads = t.stats.overloads + 1 };
    Overloaded
  end
  else begin
    let doc = t.next_doc and seq = t.next_seq in
    wal_append t (Op_add { seq; doc; text });
    t.next_seq <- seq + 1;
    buffer_add t ~seq ~doc text;
    t.stats <- { t.stats with docs_absorbed = t.stats.docs_absorbed + 1 };
    Acked { doc; seq }
  end

let delete_document t doc =
  if not (Hashtbl.mem t.union doc) then false
  else begin
    let seq = t.next_seq in
    wal_append t (Op_delete { seq; doc });
    t.next_seq <- seq + 1;
    ignore (buffer_delete t ~seq ~doc);
    t.stats <- { t.stats with deletes_absorbed = t.stats.deletes_absorbed + 1 };
    true
  end

(* ------------------------------------------------------------------ *)
(* The tiered merge                                                    *)

let merged_seq t = t.merged_seq
let last_seq t = t.next_seq - 1
let live t = t.live
let document_count t = Hashtbl.length t.union
let contains_document t doc = Hashtbl.mem t.union doc

let documents t =
  Hashtbl.fold (fun doc len acc -> (doc, len) :: acc) t.union [] |> List.sort compare

(* Fold the oldest sealed segments — as many as the budget admits —
   into the disk index as one epoch.  The new frontier is the highest
   sequence with no buffered addition left behind it: deletions at or
   below it are applied to the disk index in the same transaction
   (their WAL records will be dropped on replay), later ones stay
   pending as tombstones.  Documents deleted while still in memory are
   simply never written.  A buffer holding only tombstones still folds
   — the frontier advances over them so a drain always reaches the
   last acknowledged operation. *)
let merge_step ?(budget = Mneme.Budget.unlimited) t =
  if t.sealed = [] && active_empty t && Hashtbl.length t.tombs = 0 then false
  else begin
    if t.sealed = [] && not (active_empty t) then seal t;
    let meter = Mneme.Budget.meter () in
    let rec split chosen = function
      | sg :: rest when Mneme.Budget.within budget meter ->
        Mneme.Budget.charge meter ~segments:1 ~bytes:sg.sg_bytes;
        split (sg :: chosen) rest
      | rest -> (List.rev chosen, rest)
    in
    let chosen, rest = split [] t.sealed in
    let remaining_adds =
      List.fold_left (fun acc sg -> min acc sg.sg_seq_lo) max_int rest
      |> fun m -> if t.active.a_seq_lo >= 0 then min m t.active.a_seq_lo else m
    in
    let frontier =
      if remaining_adds = max_int then max t.merged_seq (last_seq t)
      else max t.merged_seq (remaining_adds - 1)
    in
    let doomed doc = Hashtbl.mem t.tombs doc in
    let docs =
      List.concat_map (fun sg -> Array.to_list sg.sg_docs) chosen
      |> List.filter (fun (doc, _) -> not (doomed doc))
    in
    (* Per term: the chosen segments' runs concatenated, doomed
       documents dropped — a canonical record, as the fold takes it. *)
    let postings = concat_runs ?keep:(tombstone_filter t.tombs) chosen in
    let deletes =
      Hashtbl.fold (fun doc seq acc -> if seq <= frontier then doc :: acc else acc) t.tombs []
      |> List.sort compare
    in
    (* The commit point: postings objects, document table, deletions
       and the new frontier, all in one journaled epoch publication. *)
    Live_index.fold_batch t.live
      ~meta:[ (meta_key, string_of_int frontier) ]
      ~docs ~postings ~deletes ();
    t.merged_seq <- frontier;
    t.sealed <- rest;
    let settled =
      Hashtbl.fold (fun doc seq acc -> if seq <= frontier then doc :: acc else acc) t.tombs []
    in
    List.iter (fun doc -> Hashtbl.remove t.tombs doc) settled;
    t.stats <-
      {
        t.stats with
        folds = t.stats.folds + 1;
        folded_docs = t.stats.folded_docs + List.length docs;
        folded_bytes = t.stats.folded_bytes + Mneme.Budget.bytes meter;
      };
    (* Nothing left to replay: every WAL record is at or below the
       frontier, so the log can be cut.  Truncation is journaled
       metadata — durable immediately, no crash point. *)
    if t.sealed = [] && active_empty t then Vfs.truncate t.wal 0;
    true
  end

let drain ?budget t =
  while merge_step ?budget t do
    ()
  done

(* ------------------------------------------------------------------ *)
(* Query evaluation over the union                                     *)

(* Binary search a segment's sorted run table. *)
let segment_run sg term =
  let lo = ref 0 and hi = ref (Array.length sg.sg_runs) in
  while !hi - !lo > 0 do
    let mid = (!lo + !hi) / 2 in
    if fst sg.sg_runs.(mid) < term then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length sg.sg_runs && fst sg.sg_runs.(!lo) = term then Some (snd sg.sg_runs.(!lo))
  else None

(* A union view's chunks of one normalised term: the disk record's
   chunks, then the term's runs in [segs] oldest first, then its run in
   [active], if any.  Consecutive segments and the active run cover
   disjoint ascending document ranges past the disk's, so with the
   tombstone filter as [keep], {!Live_index.record} over them is exactly
   the record a from-scratch index of the union's documents would hold:
   each input decoded once and the union encoded once, and with no
   tombstone pending, a term held only on disk in one chunk is that
   chunk's bytes. *)
let union_chunks (disk : Live_index.view) ~segs ~active term =
  disk.chunks term
  @ List.filter_map (fun sg -> segment_run sg term) segs
  @ Option.to_list
      (Option.bind active (fun a -> Option.map materialize (Hashtbl.find_opt a.a_runs term)))

let latest t =
  {
    Live_index.chunks =
      union_chunks (Live_index.latest t.live) ~segs:t.sealed ~active:(Some t.active);
    keep = tombstone_filter t.tombs;
    doc_len = Hashtbl.find_opt t.union;
    n_docs = Hashtbl.length t.union;
    total_len = t.union_len;
    next_doc = t.next_doc;
  }

let search ?top_k t query = Live_index.rank ?top_k t.live (latest t) query

(* ------------------------------------------------------------------ *)
(* Pinned union reading                                                *)

type pin = {
  ip_live : Live_index.pin;
  ip_segments : segment list;
  ip_tombs : (int, int) Hashtbl.t;
  ip_docs : (int, int) Hashtbl.t;
  ip_total : int;
  ip_next : int;
}

let pin t =
  (* Freeze the active segment first: sealed segments are immutable, so
     the pin can hold the list by reference forever. *)
  seal t;
  {
    ip_live = Live_index.pin t.live;
    ip_segments = t.sealed;
    ip_tombs = Hashtbl.copy t.tombs;
    ip_docs = Hashtbl.copy t.union;
    ip_total = t.union_len;
    ip_next = t.next_doc;
  }

let release t p = Live_index.release t.live p.ip_live

let pinned t p =
  {
    Live_index.chunks =
      union_chunks (Live_index.pinned t.live p.ip_live) ~segs:p.ip_segments ~active:None;
    keep = tombstone_filter p.ip_tombs;
    doc_len = Hashtbl.find_opt p.ip_docs;
    n_docs = Hashtbl.length p.ip_docs;
    total_len = p.ip_total;
    next_doc = p.ip_next;
  }

(* ------------------------------------------------------------------ *)
(* Construction and recovery                                           *)

let make vfs live ~wal ~config ~merged_seq =
  {
    vfs;
    live;
    wal;
    config;
    next_seq = merged_seq + 1;
    merged_seq;
    next_doc = Live_index.next_doc live;
    active = fresh_active ();
    sealed = [];
    tombs = Hashtbl.create 64;
    union = Hashtbl.create 256;
    union_len = 0;
    stats =
      {
        docs_absorbed = 0;
        deletes_absorbed = 0;
        overloads = 0;
        seals = 0;
        folds = 0;
        folded_docs = 0;
        folded_bytes = 0;
        wal_bytes = 0;
        replayed_ops = 0;
      };
  }

let seed_union t =
  List.iter
    (fun (doc, len) ->
      Hashtbl.replace t.union doc len;
      t.union_len <- t.union_len + len)
    (Live_index.doc_lengths t.live)

let create ?(config = default_config) ?stopwords ?stem vfs ~file () =
  check_config config;
  let live = Live_index.create_mneme ?stopwords ?stem ~journal:(journal_file file) vfs ~file () in
  let wal = Vfs.open_file vfs (wal_file file) in
  make vfs live ~wal ~config ~merged_seq:(-1)

(* The frontier sealed into the root.  Only an absent key means "never
   folded": a value that is not the decimal form of an integer >= 0 is a
   damaged root, and reading it as -1 would replay documents that are
   already on disk. *)
let read_merged_seq live =
  match List.assoc_opt meta_key (Live_index.meta live) with
  | None -> -1
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n >= 0 && string_of_int n = s -> n
    | _ -> raise (Mneme.Store.Corrupt (Printf.sprintf "Ingest: frontier %S is malformed" s)))

let open_ ?(config = default_config) ?stopwords ?stem vfs ~file () =
  check_config config;
  let log_file = journal_file file in
  let live =
    if not (Vfs.file_exists vfs file) then
      Live_index.create_mneme ?stopwords ?stem ~journal:log_file vfs ~file ()
    else begin
      ignore (Mneme.Store.recover_journal vfs ~file ~log_file);
      (* If no epoch was ever committed, all durable state lives in the
         WAL: start the disk index over.  Any committed epoch is
         guaranteed recoverable (the journal replays it), so a store
         that is unreadable after recovery and has no root never held
         acknowledged state. *)
      let committed =
        match Mneme.Store.open_existing vfs file with
        | store -> Mneme.Store.root store <> None
        | exception Mneme.Store.Corrupt _ -> false
      in
      if committed then Live_index.open_mneme ?stopwords ?stem ~journal:log_file vfs ~file ()
      else begin
        Vfs.delete_file vfs file;
        Vfs.delete_file vfs log_file;
        Live_index.create_mneme ?stopwords ?stem ~journal:log_file vfs ~file ()
      end
    end
  in
  let wal = Vfs.open_file vfs (wal_file file) in
  let merged_seq = read_merged_seq live in
  let t = make vfs live ~wal ~config ~merged_seq in
  seed_union t;
  (* Replay the WAL's valid prefix past the frontier; cut the torn
     tail so later appends extend the valid prefix. *)
  let ops, valid = wal_scan wal in
  if valid < Vfs.size wal then Vfs.truncate wal valid;
  List.iter
    (fun op ->
      let seq = op_seq op in
      if seq >= t.next_seq then t.next_seq <- seq + 1;
      if seq > merged_seq then begin
        (match op with
        | Op_add { seq; doc; text } -> buffer_add t ~seq ~doc text
        | Op_delete { seq; doc } -> ignore (buffer_delete t ~seq ~doc));
        t.stats <- { t.stats with replayed_ops = t.stats.replayed_ops + 1 }
      end)
    ops;
  (* A crash can land between a fold's commit and its WAL cut; if the
     replay left nothing pending, every surviving record is at or below
     the frontier and the log is finished business. *)
  if t.sealed = [] && active_empty t && Hashtbl.length t.tombs = 0 then Vfs.truncate t.wal 0;
  t

(* ------------------------------------------------------------------ *)
(* Auditing                                                            *)

let audit t =
  let problems = ref (Live_index.audit t.live) in
  let flag where what = problems := !problems @ [ (where, what) ] in
  (* The frontier the root carries must be the frontier we serve. *)
  (match read_merged_seq t.live with
  | root_seq when root_seq <> t.merged_seq ->
    flag "frontier" (Printf.sprintf "root says seq %d, serving %d" root_seq t.merged_seq)
  | _ -> ()
  | exception Mneme.Store.Corrupt msg -> flag "frontier" msg);
  (* Tombstones are pending by definition. *)
  Hashtbl.iter
    (fun doc seq ->
      if seq <= t.merged_seq then
        flag "tombstones"
          (Printf.sprintf "document %d's deletion (seq %d) is behind the frontier" doc seq))
    t.tombs;
  (* The union table must be exactly (disk ∪ memory) − tombstones. *)
  let expect = Hashtbl.create 256 in
  List.iter
    (fun (doc, len) ->
      if not (Hashtbl.mem t.tombs doc) then Hashtbl.replace expect doc len)
    (Live_index.doc_lengths t.live);
  let mem_doc (doc, len) =
    if Hashtbl.mem expect doc then
      flag "union" (Printf.sprintf "document %d is in memory and on disk" doc)
    else if not (Hashtbl.mem t.tombs doc) then Hashtbl.replace expect doc len
  in
  List.iter (fun sg -> Array.iter mem_doc sg.sg_docs) t.sealed;
  List.iter mem_doc (List.rev t.active.a_docs);
  if Hashtbl.length expect <> Hashtbl.length t.union then
    flag "union"
      (Printf.sprintf "%d documents expected, %d served" (Hashtbl.length expect)
         (Hashtbl.length t.union));
  Hashtbl.iter
    (fun doc len ->
      match Hashtbl.find_opt t.union doc with
      | Some l when l = len -> ()
      | Some l -> flag "union" (Printf.sprintf "document %d length %d, expected %d" doc l len)
      | None -> flag "union" (Printf.sprintf "document %d missing from the union" doc))
    expect;
  let sum = Hashtbl.fold (fun _ l acc -> acc + l) t.union 0 in
  if sum <> t.union_len then
    flag "union" (Printf.sprintf "lengths sum to %d but union_len is %d" sum t.union_len);
  (* Sealed segments: valid records, ascending disjoint documents. *)
  List.iteri
    (fun i sg ->
      let where = Printf.sprintf "segment %d (tier %d)" i sg.sg_tier in
      let last = ref (-1) in
      Array.iter
        (fun (doc, _) ->
          if doc <= !last then flag where (Printf.sprintf "document ids not ascending at %d" doc);
          last := doc)
        sg.sg_docs;
      Array.iter
        (fun (term, record) ->
          match Inquery.Postings.validate record with
          | Ok () -> ()
          | Error e -> flag where (Printf.sprintf "term %s: %s" term e))
        sg.sg_runs)
    t.sealed;
  !problems
