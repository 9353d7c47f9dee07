type 'a t = (string, int * 'a) Util.Lru.t (* key -> (epoch, ranking) *)

let create ~capacity_bytes = Util.Lru.create ~capacity:capacity_bytes

(* An entry tagged with any other epoch is stale the moment it is seen:
   the probe purges it on the spot rather than letting dead epochs squat
   in the budget until LRU gets around to them. *)
let find t ~key ~epoch = Option.map snd (Util.Lru.find t key ~stale:(fun (e, _) -> e <> epoch))
let insert t ~key ~epoch ~cost v = Util.Lru.add t key ~cost (epoch, v)
let retain t ~keep = Util.Lru.retain t ~keep:(fun _ (epoch, _) -> keep epoch)

let epochs t =
  Util.Lru.fold t ~init:[] ~f:(fun acc _ (epoch, _) -> epoch :: acc) |> List.sort_uniq compare

let stats = Util.Lru.stats
