(** Bit-granular reading and writing over byte buffers.

    Substrate for the Elias codes in {!Codes} and the signature-file
    bitmaps.  Bits are written most-significant-first within each
    byte. *)

module Writer : sig
  type t

  val create : unit -> t

  val bit : t -> bool -> unit
  val bits : t -> value:int -> width:int -> unit
  (** Write [width] low bits of [value], most significant first.
      Raises [Invalid_argument] if [width] is outside [0, 62] or
      [value] has bits above [width]. *)

  val unary : t -> int -> unit
  (** [n] zero bits followed by a one bit. *)

  val bit_length : t -> int
  val to_bytes : t -> bytes
  (** Pad the final partial byte with zero bits. *)
end

module Reader : sig
  type t

  val create : bytes -> t
  val of_sub : bytes -> pos:int -> len:int -> t

  val bit : t -> bool
  (** Raises [Invalid_argument] past the end. *)

  val bits : t -> width:int -> int
  (** The next [width] bits, most significant first.  Raises
      [Invalid_argument], consuming nothing, if fewer remain or [width]
      is outside [0, 62]. *)

  val unary : t -> int
  (** Count zero bits up to the terminating one bit. *)

  val bits_consumed : t -> int
  val remaining : t -> int
end
