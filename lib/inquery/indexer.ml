type term_acc = {
  entry : Dictionary.entry;
  builder : Postings.Builder.t; (* streaming v2 record under construction *)
  mutable pending : int list; (* current doc's positions, reversed *)
  mutable pending_count : int;
}

type t = {
  dict : Dictionary.t;
  stopwords : Stopwords.t option;
  stem : bool;
  mutable accs : term_acc option array; (* indexed by term id *)
  mutable doc_count : int;
  mutable last_doc_id : int;
  mutable doc_lens : int array;
  mutable max_doc_id : int;
  mutable collection_bytes : int;
  mutable posting_count : int;
  mutable occurrence_count : int;
}

let create ?stopwords ?(stem = false) () =
  {
    dict = Dictionary.create ();
    stopwords;
    stem;
    accs = Array.make 1024 None;
    doc_count = 0;
    last_doc_id = -1;
    doc_lens = Array.make 1024 0;
    max_doc_id = -1;
    collection_bytes = 0;
    posting_count = 0;
    occurrence_count = 0;
  }

let acc_for t term =
  let entry = Dictionary.intern t.dict term in
  if entry.Dictionary.id >= Array.length t.accs then begin
    let accs = Array.make (max (entry.Dictionary.id + 1) (Array.length t.accs * 2)) None in
    Array.blit t.accs 0 accs 0 (Array.length t.accs);
    t.accs <- accs
  end;
  match t.accs.(entry.Dictionary.id) with
  | Some acc -> acc
  | None ->
    let acc =
      { entry; builder = Postings.Builder.create (); pending = []; pending_count = 0 }
    in
    t.accs.(entry.Dictionary.id) <- Some acc;
    acc

let flush_pending t acc doc_id =
  if acc.pending_count > 0 then begin
    Postings.Builder.add acc.builder ~doc:doc_id ~positions:(List.rev acc.pending);
    acc.entry.Dictionary.df <- acc.entry.Dictionary.df + 1;
    acc.entry.Dictionary.cf <- acc.entry.Dictionary.cf + acc.pending_count;
    t.posting_count <- t.posting_count + 1;
    t.occurrence_count <- t.occurrence_count + acc.pending_count;
    acc.pending <- [];
    acc.pending_count <- 0
  end

let record_doc_len t doc_id len =
  if doc_id >= Array.length t.doc_lens then begin
    let lens = Array.make (max (doc_id + 1) (Array.length t.doc_lens * 2)) 0 in
    Array.blit t.doc_lens 0 lens 0 (Array.length t.doc_lens);
    t.doc_lens <- lens
  end;
  t.doc_lens.(doc_id) <- len;
  t.max_doc_id <- max t.max_doc_id doc_id

let begin_document t doc_id =
  if doc_id <= t.last_doc_id then
    invalid_arg "Indexer: document ids must be strictly increasing";
  t.last_doc_id <- doc_id;
  t.doc_count <- t.doc_count + 1

(* Index one occurrence; the per-doc flush happens when the document is
   complete, because the compressed entry needs tf up front. *)
let occurrence touched acc position =
  if acc.pending_count = 0 then touched := acc :: !touched;
  acc.pending <- position :: acc.pending;
  acc.pending_count <- acc.pending_count + 1

let finish_document t touched doc_id indexed_len =
  List.iter (fun acc -> flush_pending t acc doc_id) !touched;
  record_doc_len t doc_id indexed_len

let add_document t ~doc_id text =
  begin_document t doc_id;
  let touched = ref [] in
  let indexed =
    Lexer.fold_tokens text ~init:0 ~f:(fun n term position ->
        match Stopwords.normalize ?stopwords:t.stopwords ~stem:t.stem term with
        | Some term ->
          occurrence touched (acc_for t term) position;
          n + 1
        | None -> n)
  in
  finish_document t touched doc_id indexed;
  t.collection_bytes <- t.collection_bytes + String.length text

let add_document_terms t ~doc_id ?bytes terms =
  begin_document t doc_id;
  let touched = ref [] in
  Array.iteri (fun position term -> occurrence touched (acc_for t term) position) terms;
  finish_document t touched doc_id (Array.length terms);
  let raw =
    match bytes with
    | Some n -> n
    | None -> Array.fold_left (fun acc term -> acc + String.length term + 1) 0 terms
  in
  t.collection_bytes <- t.collection_bytes + raw

let dictionary t = t.dict
let document_count t = t.doc_count
let term_count t = Dictionary.size t.dict
let posting_count t = t.posting_count
let occurrence_count t = t.occurrence_count
let collection_bytes t = t.collection_bytes

let doc_length t doc_id =
  if doc_id < 0 || doc_id > t.max_doc_id then 0 else t.doc_lens.(doc_id)

let avg_doc_length t =
  if t.doc_count = 0 then 0.0
  else begin
    let total = ref 0 in
    for d = 0 to t.max_doc_id do
      total := !total + t.doc_lens.(d)
    done;
    float_of_int !total /. float_of_int t.doc_count
  end

let record_of_acc acc = Postings.Builder.finish acc.builder

let to_records t =
  let n = Dictionary.size t.dict in
  let rec seq id () =
    if id >= n then Seq.Nil
    else
      match t.accs.(id) with
      | None -> seq (id + 1) ()
      | Some acc -> Seq.Cons ((id, record_of_acc acc), seq (id + 1))
  in
  seq 0

let record_bytes_total t =
  Seq.fold_left (fun total (_, record) -> total + Bytes.length record) 0 (to_records t)
