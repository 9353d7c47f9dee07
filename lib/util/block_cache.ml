(* A frame's epoch is only a tag — the segment invariant makes it
   irrelevant to the bytes — so it rides in the value, where [retain]
   and [epochs] read it. *)
type t = (int * int, int * bytes) Lru.t (* (owner, segment id) -> (epoch, image) *)

(* Node, key and bytes headers. *)
let overhead = 48
let create ~capacity_bytes = Lru.create ~capacity:capacity_bytes
let find_frame t ~owner ~seg = Option.map snd (Lru.find t (owner, seg))
let frame_resident t ~owner ~seg = Lru.mem t (owner, seg)

let insert_frame t ~owner ~seg ~epoch image =
  Lru.add t (owner, seg) ~cost:(Bytes.length image + overhead) (epoch, image)

let retain t ~keep = Lru.retain t ~keep:(fun _ (epoch, _) -> keep epoch)

let epochs t =
  Lru.fold t ~init:[] ~f:(fun acc _ (epoch, _) -> epoch :: acc) |> List.sort_uniq compare

let stats = Lru.stats
