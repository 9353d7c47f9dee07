module Writer = struct
  type t = { buf : Buffer.t; mutable acc : int; mutable used : int; mutable total : int }

  let create () = { buf = Buffer.create 64; acc = 0; used = 0; total = 0 }

  let flush_byte t =
    Buffer.add_char t.buf (Char.chr t.acc);
    t.acc <- 0;
    t.used <- 0

  let bit t b =
    t.acc <- (t.acc lsl 1) lor (if b then 1 else 0);
    t.used <- t.used + 1;
    t.total <- t.total + 1;
    if t.used = 8 then flush_byte t

  let bits t ~value ~width =
    if width < 0 || width > 62 then invalid_arg "Bitio.Writer.bits: width out of range";
    if width < 62 && value lsr width <> 0 then
      invalid_arg "Bitio.Writer.bits: value wider than width";
    if value < 0 then invalid_arg "Bitio.Writer.bits: negative value";
    for i = width - 1 downto 0 do
      bit t ((value lsr i) land 1 = 1)
    done

  let unary t n =
    if n < 0 then invalid_arg "Bitio.Writer.unary: negative";
    for _ = 1 to n do
      bit t false
    done;
    bit t true

  let bit_length t = t.total

  let to_bytes t =
    let out = Buffer.create (Buffer.length t.buf + 1) in
    Buffer.add_buffer out t.buf;
    if t.used > 0 then Buffer.add_char out (Char.chr (t.acc lsl (8 - t.used)));
    Buffer.to_bytes out
end

module Reader = struct
  type t = { data : bytes; first : int; limit : int; mutable pos : int (* bit index *) }

  let of_sub data ~pos ~len =
    if pos < 0 || len < 0 || pos + len > Bytes.length data then
      invalid_arg "Bitio.Reader.of_sub: range out of bounds";
    { data; first = pos * 8; limit = (pos + len) * 8; pos = pos * 8 }

  let create data = of_sub data ~pos:0 ~len:(Bytes.length data)

  let bit t =
    if t.pos >= t.limit then invalid_arg "Bitio.Reader: past end of input";
    let byte = Char.code (Bytes.get t.data (t.pos / 8)) in
    let b = (byte lsr (7 - (t.pos mod 8))) land 1 = 1 in
    t.pos <- t.pos + 1;
    b

  (* A byte-sized chunk per step, not a bit. *)
  let bits t ~width =
    if width < 0 || width > 62 then invalid_arg "Bitio.Reader.bits: width out of range";
    if t.pos + width > t.limit then invalid_arg "Bitio.Reader: past end of input";
    let v = ref 0 and need = ref width and pos = ref t.pos in
    while !need > 0 do
      let avail = 8 - (!pos land 7) in
      let take = if !need < avail then !need else avail in
      let byte = Char.code (Bytes.unsafe_get t.data (!pos lsr 3)) in
      v := (!v lsl take) lor ((byte lsr (avail - take)) land ((1 lsl take) - 1));
      need := !need - take;
      pos := !pos + take
    done;
    t.pos <- !pos;
    !v

  let unary t =
    let n = ref 0 in
    while not (bit t) do
      incr n
    done;
    !n

  let bits_consumed t = t.pos - t.first
  let remaining t = t.limit - t.pos
end
