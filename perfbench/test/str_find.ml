(* Substring search, for reading the benchmark's own text formats. *)

let find_from s i sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then raise Not_found else if String.sub s i m = sub then i else go (i + 1)
  in
  go i

let find s sub = find_from s 0 sub
let contains s sub = match find s sub with _ -> true | exception Not_found -> false
