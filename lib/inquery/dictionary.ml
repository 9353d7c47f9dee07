type entry = {
  term : string;
  id : int;
  mutable df : int;
  mutable cf : int;
  mutable locator : int;
}

type chain = Nil | Cons of entry * chain ref

type t = {
  mutable buckets : chain ref array;
  mutable by_id : entry option array;
  mutable count : int;
}

let create ?(initial_buckets = 1024) () =
  let width = max 16 initial_buckets in
  { buckets = Array.init width (fun _ -> ref Nil); by_id = Array.make width None; count = 0 }

(* FNV-1a: stable across runs, unlike [Hashtbl.hash] seeds. *)
let hash s =
  let h = ref 0x3f29ce484222325 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x100000001b3)
    s;
  !h land max_int

let bucket_count t = Array.length t.buckets

let rec chain_find chain term =
  match !chain with
  | Nil -> None
  | Cons (e, rest) -> if e.term = term then Some e else chain_find rest term

let find t term = chain_find t.buckets.(hash term mod Array.length t.buckets) term

let grow t =
  let old = t.buckets in
  let width = Array.length old * 2 in
  let buckets = Array.init width (fun _ -> ref Nil) in
  Array.iter
    (fun chain ->
      let rec go c =
        match !c with
        | Nil -> ()
        | Cons (e, rest) ->
          let b = buckets.(hash e.term mod width) in
          b := Cons (e, ref !b);
          go rest
      in
      go chain)
    old;
  t.buckets <- buckets

let intern t term =
  match find t term with
  | Some e -> e
  | None ->
    if t.count >= Array.length t.buckets * 4 then grow t;
    let e = { term; id = t.count; df = 0; cf = 0; locator = -1 } in
    let b = t.buckets.(hash term mod Array.length t.buckets) in
    b := Cons (e, ref !b);
    if t.count >= Array.length t.by_id then begin
      let by_id = Array.make (Array.length t.by_id * 2) None in
      Array.blit t.by_id 0 by_id 0 (Array.length t.by_id);
      t.by_id <- by_id
    end;
    t.by_id.(t.count) <- Some e;
    t.count <- t.count + 1;
    e

let find_by_id t id = if id < 0 || id >= t.count then None else t.by_id.(id)
let size t = t.count

let iter t f =
  for id = 0 to t.count - 1 do
    match t.by_id.(id) with Some e -> f e | None -> ()
  done

let serialize t =
  let buf = Buffer.create (t.count * 24) in
  Util.Bin.buf_u32 buf t.count;
  iter t (fun e ->
      Util.Bin.buf_string buf e.term;
      Util.Bin.buf_u32 buf e.df;
      Util.Bin.buf_u64 buf e.cf;
      Util.Bin.buf_u64 buf (e.locator + 1));
  Buffer.to_bytes buf

let deserialize b =
  try
    let count = Util.Bin.get_u32 b 0 in
    let t = create ~initial_buckets:(max 16 (count / 2)) () in
    let pos = ref 4 in
    for _ = 1 to count do
      let term, p = Util.Bin.get_string b !pos in
      let e = intern t term in
      e.df <- Util.Bin.get_u32 b p;
      e.cf <- Util.Bin.get_u64 b (p + 4);
      e.locator <- Util.Bin.get_u64 b (p + 12) - 1;
      pos := p + 20
    done;
    t
  with Invalid_argument _ -> failwith "Dictionary.deserialize: corrupt image"
