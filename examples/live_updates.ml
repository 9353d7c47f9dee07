(* Dynamic collection maintenance — the capability the paper's systems
   lacked ("addition or deletion of a single document ... requires the
   entire document collection to be re-indexed"), built on the Mneme
   feature the paper highlights as its enabler: object relocation.

   Run with: dune exec examples/live_updates.exe *)

let () =
  let vfs = Vfs.create () in
  let live =
    Core.Live_index.create_mneme ~stopwords:Inquery.Stopwords.default ~stem:true vfs
      ~file:"live.mneme" ()
  in

  (* 1. Documents arrive one at a time and are immediately searchable. *)
  print_endline "Adding documents incrementally:";
  let add text =
    let id = Core.Live_index.add_document live text in
    Printf.printf "  doc %d: %s\n" id text;
    id
  in
  let _d0 = add "The B-tree package stores inverted lists in a keyed file." in
  let _d1 = add "Mneme groups objects into physical segments for transfer." in
  let _d2 = add "Buffer replacement uses LRU with a reservation optimization." in
  let d3 = add "Segment transfer costs dominate lookups in large collections." in

  let show query =
    Printf.printf "  %-28s ->" query;
    List.iter
      (fun r -> Printf.printf " doc%d(%.3f)" r.Inquery.Ranking.doc r.Inquery.Ranking.score)
      (Core.Live_index.search live query);
    print_newline ()
  in
  print_endline "\nSearching the live index:";
  show "segment transfer";
  show "#phrase( inverted lists )";

  (* 2. Deletion punches the document out of every inverted list. *)
  Printf.printf "\nDeleting doc %d...\n" d3;
  ignore (Core.Live_index.delete_document live d3);
  show "segment transfer";

  (* 3. Updates strand space (the paper's space-management problem). *)
  let bulk_add i =
    ignore
      (Core.Live_index.add_document live
         (Printf.sprintf "update number %d mentions segments and buffers again" i))
  in
  for i = 0 to 39 do
    bulk_add i
  done;
  Core.Live_index.flush live;
  for i = 40 to 79 do
    bulk_add i
  done;
  let s = Core.Live_index.space live in
  Printf.printf "\nAfter 80 more updates: file %d KB, stranded %d bytes (%.1f%%)\n"
    (s.Core.Live_index.file_bytes / 1024)
    s.Core.Live_index.reclaimable_bytes
    (100.0
    *. float_of_int s.Core.Live_index.reclaimable_bytes
    /. float_of_int (max 1 s.Core.Live_index.file_bytes));
  Printf.printf "Documents now indexed: %d (avg %.1f terms)\n"
    (Core.Live_index.document_count live)
    (Core.Live_index.avg_doc_length live)
