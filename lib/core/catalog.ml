type t = {
  dict : Inquery.Dictionary.t;
  n_docs : int;
  doc_lens : int array;
  collection_bytes : int;
}

let magic = "IRCT"

let of_indexer indexer =
  let n_docs = Inquery.Indexer.document_count indexer in
  (* Document ids are dense in every builder path; size by count. *)
  let doc_lens = Array.init n_docs (Inquery.Indexer.doc_length indexer) in
  {
    dict = Inquery.Indexer.dictionary indexer;
    n_docs;
    doc_lens;
    collection_bytes = Inquery.Indexer.collection_bytes indexer;
  }

let avg_doc_length t =
  if t.n_docs = 0 then 0.0
  else float_of_int (Array.fold_left ( + ) 0 t.doc_lens) /. float_of_int t.n_docs

let doc_len t d = if d < 0 || d >= Array.length t.doc_lens then 0 else t.doc_lens.(d)

let save vfs ~file t =
  let dict_blob = Inquery.Dictionary.serialize t.dict in
  let buf = Buffer.create (Bytes.length dict_blob + (Array.length t.doc_lens * 2) + 64) in
  Buffer.add_string buf magic;
  Util.Bin.buf_u32 buf t.n_docs;
  Util.Bin.buf_u64 buf t.collection_bytes;
  Util.Bin.buf_u32 buf (Array.length t.doc_lens);
  Array.iter (Util.Varint.encode buf) t.doc_lens;
  Util.Bin.buf_u32 buf (Bytes.length dict_blob);
  Buffer.add_bytes buf dict_blob;
  let f = Vfs.open_file vfs file in
  Vfs.truncate f 0;
  ignore (Vfs.append f (Buffer.to_bytes buf))

let load vfs ~file =
  if not (Vfs.file_exists vfs file) then failwith ("Catalog.load: no such file: " ^ file);
  let f = Vfs.open_file vfs file in
  let b = Vfs.read f ~off:0 ~len:(Vfs.size f) in
  if Bytes.length b < 16 || Bytes.sub_string b 0 4 <> magic then
    failwith "Catalog.load: bad magic";
  try
    let n_docs = Util.Bin.get_u32 b 4 in
    let collection_bytes = Util.Bin.get_u64 b 8 in
    let len_count = Util.Bin.get_u32 b 16 in
    let pos = ref 20 in
    let doc_lens =
      Array.init len_count (fun _ ->
          let v, pos' = Util.Varint.decode b ~pos:!pos in
          pos := pos';
          v)
    in
    let dict_len = Util.Bin.get_u32 b !pos in
    let dict_blob = Bytes.sub b (!pos + 4) dict_len in
    { dict = Inquery.Dictionary.deserialize dict_blob; n_docs; doc_lens; collection_bytes }
  with Invalid_argument _ -> failwith "Catalog.load: corrupt catalog"

(* Cross-check the dictionary against the stored records: every entry
   with a locator must fetch, parse (either postings version), satisfy
   the deep structural invariants, and agree with the dictionary's df.
   Part of fsck — reports, never raises. *)
let verify_records t ~fetch =
  let problems = ref [] in
  let flag term what = problems := (term, what) :: !problems in
  Inquery.Dictionary.iter t.dict (fun entry ->
      let term = entry.Inquery.Dictionary.term in
      match fetch entry with
      | exception Mneme.Store.Corrupt msg -> flag term ("record unreadable: " ^ msg)
      | exception Invalid_argument msg -> flag term ("record unreadable: " ^ msg)
      | exception Failure msg -> flag term ("record unreadable: " ^ msg)
      | None -> if entry.Inquery.Dictionary.df > 0 then flag term "df > 0 but no stored record"
      | Some record -> (
        match Inquery.Postings.validate record with
        | Error msg -> flag term msg
        | Ok () ->
          let df, cf = Inquery.Postings.stats record in
          if df <> entry.Inquery.Dictionary.df then
            flag term
              (Printf.sprintf "dictionary df %d but record df %d" entry.Inquery.Dictionary.df df);
          if cf <> entry.Inquery.Dictionary.cf then
            flag term
              (Printf.sprintf "dictionary cf %d but record cf %d" entry.Inquery.Dictionary.cf cf)));
  List.rev !problems
