let default_policies = (Mneme.Policy.small, Mneme.Policy.medium, Mneme.Policy.large)

let build ?thresholds ?(policies = default_policies) vfs ~file ~dict records =
  let small_p, medium_p, large_p = policies in
  if
    small_p.Mneme.Policy.name <> "small"
    || medium_p.Mneme.Policy.name <> "medium"
    || large_p.Mneme.Policy.name <> "large"
  then invalid_arg "Mneme_backend.build: pool policies must be named small/medium/large";
  let store = Mneme.Store.create vfs file in
  let pools =
    List.map
      (fun policy -> (policy.Mneme.Policy.name, Mneme.Store.add_pool store policy))
      [ small_p; medium_p; large_p ]
  in
  let pool_of cls = List.assoc (Partition.class_name cls) pools in
  Seq.iter
    (fun (term_id, record) ->
      let cls = Partition.classify ?thresholds (Bytes.length record) in
      let oid = Mneme.Store.allocate (pool_of cls) record in
      match Inquery.Dictionary.find_by_id dict term_id with
      | Some entry -> entry.Inquery.Dictionary.locator <- oid
      | None -> failwith (Printf.sprintf "Mneme_backend.build: term id %d not in dictionary" term_id))
    records;
  Mneme.Store.finalize store;
  store

let pool_names = [ "small"; "medium"; "large" ]

let session store =
  let bufs =
    List.map
      (fun name -> (name, Option.get (Mneme.Store.buffer (Mneme.Store.pool store name))))
      pool_names
  in
  let cached =
    if List.for_all (fun (_, b) -> Mneme.Buffer_pool.capacity b = 0) bufs then "mneme-nocache"
    else "mneme-cache"
  in
  let fetch entry =
    let locator = entry.Inquery.Dictionary.locator in
    if locator < 0 then None else Mneme.Store.get_opt store locator
  in
  let fetch_resident entry =
    let locator = entry.Inquery.Dictionary.locator in
    if locator < 0 then None else Mneme.Store.fetch_resident store locator
  in
  let reserve entries =
    let oids =
      List.filter_map
        (fun entry ->
          let locator = entry.Inquery.Dictionary.locator in
          if locator < 0 then None else Some locator)
        entries
    in
    Mneme.Store.reserve store oids
  in
  {
    Index_store.name = cached;
    fetch;
    reserve;
    buffer_stats = (fun () -> List.map (fun (name, b) -> (name, Mneme.Buffer_pool.stats b)) bufs);
    reset_buffer_stats = (fun () -> List.iter (fun (_, b) -> Mneme.Buffer_pool.reset_stats b) bufs);
    file_size = (fun () -> Mneme.Store.file_size store);
    epoch = (fun () -> Mneme.Store.epoch store);
    attach_frames = (fun cache -> Mneme.Store.set_frames store (Some cache));
    fetch_resident;
  }

let open_session ?(policy = Mneme.Buffer_pool.Lru) vfs ~file ~buffers =
  let store = Mneme.Store.open_existing vfs file in
  List.iter2
    (fun name capacity ->
      Mneme.Store.attach_buffer (Mneme.Store.pool store name)
        (Mneme.Buffer_pool.create ~name ~capacity ~policy ()))
    pool_names
    [ buffers.Buffer_sizing.small; buffers.Buffer_sizing.medium; buffers.Buffer_sizing.large ];
  session store
