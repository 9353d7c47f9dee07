type t = {
  name : string;
  fetch : Inquery.Dictionary.entry -> bytes option;
  reserve : Inquery.Dictionary.entry list -> unit -> unit;
  buffer_stats : unit -> (string * Mneme.Buffer_pool.stats) list;
  reset_buffer_stats : unit -> unit;
  file_size : unit -> int;
  epoch : unit -> int;
  attach_frames : Util.Block_cache.t -> unit;
  fetch_resident : Inquery.Dictionary.entry -> bytes option;
}

let no_reserve _entries () = ()
let no_frames _cache = ()
let never_resident _entry = None
