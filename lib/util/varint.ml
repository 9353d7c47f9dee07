let encoded_size n =
  if n < 0 then invalid_arg "Varint.encoded_size: negative";
  let rec go n acc = if n < 128 then acc else go (n lsr 7) (acc + 1) in
  go n 1

let encode buf n =
  if n < 0 then invalid_arg "Varint.encode: negative";
  let rec go n =
    if n < 128 then Buffer.add_char buf (Char.chr (n lor 0x80))
    else begin
      Buffer.add_char buf (Char.chr (n land 0x7f));
      go (n lsr 7)
    end
  in
  go n

let read b pos =
  let len = Bytes.length b in
  let acc = ref 0 and shift = ref 0 and last = ref false in
  while not !last do
    if !pos >= len then invalid_arg "Varint.decode: truncated input";
    let c = Char.code (Bytes.unsafe_get b !pos) in
    incr pos;
    acc := !acc lor ((c land 0x7f) lsl !shift);
    shift := !shift + 7;
    last := c land 0x80 <> 0
  done;
  !acc

let decode b ~pos =
  let len = Bytes.length b in
  let rec go pos shift acc =
    if pos >= len then invalid_arg "Varint.decode: truncated input";
    let c = Char.code (Bytes.unsafe_get b pos) in
    if c land 0x80 <> 0 then (acc lor ((c land 0x7f) lsl shift), pos + 1)
    else go (pos + 1) (shift + 7) (acc lor (c lsl shift))
  in
  go pos 0 0

let encode_list vs =
  let buf = Buffer.create (List.length vs * 2) in
  List.iter (encode buf) vs;
  Buffer.to_bytes buf

let fold b ~pos ~len ~init ~f =
  let stop = pos + len in
  if stop > Bytes.length b then invalid_arg "Varint.fold: range out of bounds";
  let rec go pos acc =
    if pos >= stop then acc
    else
      let v, pos' = decode b ~pos in
      if pos' > stop then invalid_arg "Varint.fold: truncated value";
      go pos' (f acc v)
  in
  go pos init

let decode_all b ~pos ~len =
  List.rev (fold b ~pos ~len ~init:[] ~f:(fun acc v -> v :: acc))
