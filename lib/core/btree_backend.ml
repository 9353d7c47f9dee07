let build vfs ~file records =
  let tree = Btree.create vfs file () in
  Btree.bulk_load tree records;
  tree

let session tree =
  {
    Index_store.name = "btree";
    fetch = (fun entry -> Btree.lookup tree entry.Inquery.Dictionary.id);
    reserve = Index_store.no_reserve;
    buffer_stats = (fun () -> []);
    reset_buffer_stats = (fun () -> ());
    file_size = (fun () -> Btree.file_size tree);
    epoch = (fun () -> 0);
    attach_frames = Index_store.no_frames;
    fetch_resident = Index_store.never_resident;
  }

let open_session vfs ~file = session (Btree.open_existing vfs file)
