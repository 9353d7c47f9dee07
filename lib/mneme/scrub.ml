type damage = { pool : string; pseg : int; off : int; len : int; crc : int }

type progress = { scanned : int; scanned_bytes : int; total : int; complete : bool }

type item = { it_pool : Store.pool; it_damage : damage }

type t = {
  store : Store.t;
  mutable census : item array; (* pools in registration order, psegs ascending *)
  mutable cursor : int;
  mutable bytes_done : int;
  mutable found : damage list; (* reverse walk order *)
}

let take_census store =
  Store.pools store
  |> List.concat_map (fun pool ->
         let pname = Store.pool_name pool in
         Store.pool_segments pool
         |> List.filter_map (fun (pseg, (off, len)) ->
                match Store.segment_crc pool pseg with
                | None -> None
                | Some crc ->
                  Some { it_pool = pool; it_damage = { pool = pname; pseg; off; len; crc } }))
  |> Array.of_list

let create store = { store; census = take_census store; cursor = 0; bytes_done = 0; found = [] }

let restart t =
  t.census <- take_census t.store;
  t.cursor <- 0;
  t.bytes_done <- 0;
  t.found <- []

let progress t =
  {
    scanned = t.cursor;
    scanned_bytes = t.bytes_done;
    total = Array.length t.census;
    complete = t.cursor >= Array.length t.census;
  }

let damages t = List.rev t.found

let step ?max_segments ?max_bytes t =
  let budget =
    try Budget.create ?max_segments ?max_bytes ()
    with Invalid_argument _ ->
      invalid_arg "Scrub.step: max_segments/max_bytes must be positive"
  in
  let total = Array.length t.census in
  let meter = Budget.meter () in
  while t.cursor < total && Budget.within budget meter do
    let item = t.census.(t.cursor) in
    (* The CRC re-read goes through the store (and its cost model),
       bypassing buffered copies — on-disk truth or nothing. *)
    if not (Store.verify_segment_crc item.it_pool item.it_damage.pseg) then
      t.found <- item.it_damage :: t.found;
    Budget.charge meter ~segments:1 ~bytes:item.it_damage.len;
    t.cursor <- t.cursor + 1;
    t.bytes_done <- t.bytes_done + item.it_damage.len
  done;
  progress t

let run store =
  let t = create store in
  ignore (step t);
  damages t

let damage_of_segment store ~pool:pname ~pseg =
  match Store.pool store pname with
  | exception Not_found -> None
  | pool -> (
    match (List.assoc_opt pseg (Store.pool_segments pool), Store.segment_crc pool pseg) with
    | Some (off, len), Some crc -> Some { pool = pname; pseg; off; len; crc }
    | _ -> None)

let verified_bytes vfs ~file d =
  if not (Vfs.file_exists vfs file) then None
  else begin
    let f = Vfs.open_file vfs file in
    if Vfs.size f < d.off + d.len then None
    else begin
      let bytes = Vfs.read f ~off:d.off ~len:d.len in
      if Util.Crc32.digest_bytes bytes = d.crc then Some bytes else None
    end
  end

let heal store ~sources d =
  match Store.pool store d.pool with
  | exception Not_found -> Error (Printf.sprintf "no pool named %s" d.pool)
  | pool -> (
    match damage_of_segment store ~pool:d.pool ~pseg:d.pseg with
    | Some current when current = d -> (
      let file = Store.file_name store in
      match
        List.find_map
          (fun (name, vfs) ->
            match verified_bytes vfs ~file d with
            | Some bytes -> Some (name, bytes)
            | None -> None)
          sources
      with
      | None ->
        Error
          (Printf.sprintf "no source holds a verified copy of %s/pseg %d (tried %s)" d.pool
             d.pseg
             (String.concat ", " (List.map fst sources)))
      | Some (name, bytes) -> (
        match Store.repair_segment pool ~pseg:d.pseg bytes with
        | Ok () -> Ok name
        | Error e -> Error e))
    | Some _ -> Error (Printf.sprintf "stale damage record for %s/pseg %d" d.pool d.pseg)
    | None -> Error (Printf.sprintf "%s/pseg %d has no on-disk image" d.pool d.pseg))
