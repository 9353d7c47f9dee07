(* ------------------------------------------------------------------ *)
(* The sealed root envelope                                             *)

let magic = "EPRT"
let max_epoch = 0xffffffff

(* magic (4) | epoch u32 | payload length u32 | payload | CRC32 over
   everything preceding the CRC.  The CRC makes the root switch an
   all-or-nothing record: a torn write fails to unseal and recovery
   falls back to whatever root the header still names. *)

let seal ~epoch payload =
  if epoch < 0 || epoch > max_epoch then
    invalid_arg (Printf.sprintf "Epoch.seal: epoch %d outside u32" epoch);
  let len = Bytes.length payload in
  let out = Bytes.create (16 + len) in
  Bytes.blit_string magic 0 out 0 4;
  Util.Bin.put_u32 out 4 epoch;
  Util.Bin.put_u32 out 8 len;
  Bytes.blit payload 0 out 12 len;
  Util.Bin.put_u32 out (12 + len) (Util.Crc32.digest_sub out ~pos:0 ~len:(12 + len));
  out

let is_sealed b = Bytes.length b >= 4 && Bytes.sub_string b 0 4 = magic

let unseal b =
  let n = Bytes.length b in
  if n < 16 then Error (Printf.sprintf "root envelope is %d bytes, minimum 16" n)
  else if Bytes.sub_string b 0 4 <> magic then Error "root envelope has bad magic"
  else begin
    let epoch = Util.Bin.get_u32 b 4 in
    let len = Util.Bin.get_u32 b 8 in
    if 16 + len <> n then
      Error (Printf.sprintf "root envelope declares %d payload bytes in a %d-byte object" len n)
    else if Util.Bin.get_u32 b (12 + len) <> Util.Crc32.digest_sub b ~pos:0 ~len:(12 + len)
    then Error "root envelope fails its CRC32"
    else Ok (epoch, Bytes.sub b 12 len)
  end

(* ------------------------------------------------------------------ *)
(* The pin/GC manager                                                   *)

type interval = { birth : int; size : int }
type stale = { s_birth : int; s_death : int; s_size : int }

type t = {
  mutable latest : int;
  live : (Oid.t, interval) Hashtbl.t;
  stale_tbl : (Oid.t, stale) Hashtbl.t;
  pins : (int, int) Hashtbl.t; (* epoch -> refcount *)
  (* Notes of the open mutation window, resolved by [publish]. *)
  mutable window_retired : (Oid.t * interval) list;
}

type pin = { p_epoch : int; mutable p_released : bool }

type gc_stats = {
  reclaimed_objects : int;
  reclaimed_bytes : int;
  retained_objects : int;
  retained_bytes : int;
}

let create ~epoch =
  if epoch < 0 then invalid_arg "Epoch.create: negative epoch";
  {
    latest = epoch;
    live = Hashtbl.create 256;
    stale_tbl = Hashtbl.create 64;
    pins = Hashtbl.create 4;
    window_retired = [];
  }

let latest t = t.latest

let born t ~oid ~size =
  if Hashtbl.mem t.live oid then
    invalid_arg (Printf.sprintf "Epoch.born: oid %d is already live" oid);
  Hashtbl.replace t.live oid { birth = t.latest + 1; size }

let adopt t ~oid ~size =
  if Hashtbl.mem t.live oid then
    invalid_arg (Printf.sprintf "Epoch.adopt: oid %d is already live" oid);
  Hashtbl.replace t.live oid { birth = 0; size }

let adopt_stale t ~oid ~size =
  Hashtbl.replace t.stale_tbl oid { s_birth = 0; s_death = 0; s_size = size }

let retired t ~oid =
  match Hashtbl.find_opt t.live oid with
  | None -> invalid_arg (Printf.sprintf "Epoch.retired: oid %d is not live" oid)
  | Some iv ->
    Hashtbl.remove t.live oid;
    t.window_retired <- (oid, iv) :: t.window_retired

let publish t =
  t.latest <- t.latest + 1;
  (* Retirements of this window become visible-through [latest - 1]:
     the new epoch no longer references them. *)
  List.iter
    (fun (oid, iv) ->
      Hashtbl.replace t.stale_tbl oid
        { s_birth = iv.birth; s_death = t.latest; s_size = iv.size })
    t.window_retired;
  t.window_retired <- [];
  t.latest

let pin t =
  let e = t.latest in
  Hashtbl.replace t.pins e (1 + Option.value ~default:0 (Hashtbl.find_opt t.pins e));
  { p_epoch = e; p_released = false }

let pin_epoch p = p.p_epoch

let release t p =
  if p.p_released then invalid_arg "Epoch.release: pin already released";
  p.p_released <- true;
  match Hashtbl.find_opt t.pins p.p_epoch with
  | None | Some 0 -> invalid_arg "Epoch.release: pin not registered"
  | Some 1 -> Hashtbl.remove t.pins p.p_epoch
  | Some n -> Hashtbl.replace t.pins p.p_epoch (n - 1)

let pinned t =
  Hashtbl.fold (fun e n acc -> List.init n (fun _ -> e) @ acc) t.pins []
  |> List.sort compare

let reachable_from_pin t s =
  Hashtbl.fold (fun e _ acc -> acc || (e >= s.s_birth && e < s.s_death)) t.pins false

let collect t ~reclaim =
  let reclaimed = ref 0 and reclaimed_b = ref 0 in
  let victims =
    Hashtbl.fold
      (fun oid s acc ->
        if s.s_death <= t.latest && not (reachable_from_pin t s) then (oid, s) :: acc
        else acc)
      t.stale_tbl []
    (* Deterministic reclaim order: the deletes are journaled writes,
       so replays must issue them identically. *)
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.iter
    (fun (oid, s) ->
      reclaim ~oid ~size:s.s_size;
      Hashtbl.remove t.stale_tbl oid;
      incr reclaimed;
      reclaimed_b := !reclaimed_b + s.s_size)
    victims;
  let retained = Hashtbl.length t.stale_tbl in
  let retained_b = Hashtbl.fold (fun _ s acc -> acc + s.s_size) t.stale_tbl 0 in
  {
    reclaimed_objects = !reclaimed;
    reclaimed_bytes = !reclaimed_b;
    retained_objects = retained;
    retained_bytes = retained_b;
  }

let live_objects t = Hashtbl.length t.live
let stale_objects t = Hashtbl.length t.stale_tbl
let stranded_bytes t = Hashtbl.fold (fun _ s acc -> acc + s.s_size) t.stale_tbl 0
