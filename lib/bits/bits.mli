(** Bit-level buffers used throughout the compression pipeline.

    All multi-bit fields are written and read MSB-first, matching the byte
    layout a ROM programmer would use.  A {!Writer.t} is a growable bit
    buffer; a {!Reader.t} is a cursor over an immutable bitstring.  Positions
    are expressed in bits from the start of the buffer. *)

module Writer : sig
  type t

  val create : ?initial_bytes:int -> unit -> t

  (** [length w] is the number of bits written so far. *)
  val length : t -> int

  (** [add_bit w b] appends a single bit. *)
  val add_bit : t -> bool -> unit

  (** [add_bits w ~width v] appends the [width] low bits of [v], MSB first.
      The field is OR-ed into the buffer with one big-endian 64-bit load
      and store whenever it ends within the 8 bytes at the cursor's byte
      (every field up to 57 bits wide), and a byte at a time otherwise.
      Raises [Invalid_argument] if [width < 0], [width > 62] or [v] does not
      fit in [width] bits. *)
  val add_bits : t -> width:int -> int -> unit

  (** [align_byte w] pads with zero bits to the next byte boundary and
      returns the number of padding bits added. *)
  val align_byte : t -> int

  (** [contents w] freezes the buffer into a byte string, zero-padding the
      final partial byte. *)
  val contents : t -> string
end

module Reader : sig
  type t

  (** [of_string s] reads from the full byte string [s]. *)
  val of_string : string -> t

  (** [pos r] is the current bit offset. *)
  val pos : t -> int

  (** [length r] is the total number of bits available. *)
  val length : t -> int

  (** [remaining r] is [length r - pos r]. *)
  val remaining : t -> int

  (** [seek r bit] repositions the cursor.  Raises [Invalid_argument] when
      out of range; the message carries the target bit and stream length. *)
  val seek : t -> int -> unit

  (** [advance r n] moves the cursor [n] bits forward.  Raises
      [Invalid_argument] if [n < 0] or the move would pass the end of the
      stream.  [peek_bits] + [advance] is the word-wise decode idiom:
      inspect up to 56 bits in one load, then consume exactly the bits a
      match used. *)
  val advance : t -> int -> unit

  (** [align_byte r] advances the cursor to the next byte boundary (or the
      end of the stream, whichever is first) and returns the number of
      padding bits skipped.  The reader-side mirror of
      {!Writer.align_byte}, used when decoding byte-aligned block layouts
      back-to-back. *)
  val align_byte : t -> int

  (** [read_bit r] consumes one bit.  Raises [Invalid_argument] at end of
      stream; the message carries the cursor position and stream length
      (e.g. ["Bits.Reader.read_bit: exhausted at bit 412/408"]). *)
  val read_bit : t -> bool

  (** [peek_bits r ~width] — the next [width] bits (MSB first) without
      moving the cursor, read in one multi-byte load: unrolled byte loads
      for a field spanning at most 4 bytes, one big-endian 64-bit load for
      a wider one while 8 bytes remain from the cursor's byte, and a byte
      loop only in the last 7 bytes of the stream.  Bits past the end of
      the stream read as zero, so near the end the result equals the
      remaining bits left-shifted into the high positions:
      [peek_bits r ~width = read_bits r ~width:(remaining r) lsl
      (width - remaining r)].  [width] must lie in [0, 56] (the widest
      window whose worst-case byte span, 7 leading skipped bits plus the
      field, still fits an OCaml int). *)
  val peek_bits : t -> width:int -> int

  (** [unsafe_peek_bits r ~width] — {!peek_bits} without the width
      validation: defined only for [width] in [0, 56].  For decode hot
      loops whose caller already guarantees the bound (e.g. a Huffman
      code's [max_len]). *)
  val unsafe_peek_bits : t -> width:int -> int

  (** [unsafe_advance r n] — {!advance} without the bounds validation:
      defined only for [0 <= n <= remaining r].  Pairs with
      {!unsafe_peek_bits} when the caller has already checked
      [remaining]. *)
  val unsafe_advance : t -> int -> unit

  (** [read_bits r ~width] consumes [width] bits, MSB first.  Widths up to
      56 with enough bits remaining go through the [peek_bits] word load;
      wider or tail reads fall back to the bit loop (and raise exactly like
      {!read_bit} on a short stream). *)
  val read_bits : t -> width:int -> int

  (** [read_bit_opt r] — total variant of {!read_bit}: [None] instead of
      raising at end of stream, with the cursor left in place. *)
  val read_bit_opt : t -> bool option

  (** [read_bits_opt r ~width] — total variant of {!read_bits}: [None] on a
      bad width or fewer than [width] bits remaining (cursor unchanged in
      the too-short case). *)
  val read_bits_opt : t -> width:int -> int option
end

(** CRCs, MSB first, zero initial value, no final xor — the guard words of
    the protected block framing and protected decode tables.  These
    generator polynomials detect every single-bit error and every error
    burst shorter than the CRC register.

    The bit-at-a-time {!update} is the defining register; {!of_string} and
    {!of_reader} run the two built-in polynomials through 256-entry byte
    tables derived from it (8× fewer register steps), falling back to the
    bitwise register for other polynomials, partial bytes and unaligned
    prefixes.  Both paths compute identical values — the differential
    property is part of the test suite. *)
module Crc : sig
  val crc8_poly : int  (** 0x07 — x^8 + x^2 + x + 1 *)

  val crc16_poly : int  (** 0x1021 — CCITT, x^16 + x^12 + x^5 + 1 *)

  (** [update ~width ~poly crc bit] — shift one bit into the register.
      The bitwise reference; kept for partial bits and as the differential
      oracle for the table path. *)
  val update : width:int -> poly:int -> int -> bool -> int

  (** [update_byte ~width ~poly crc b] — eight {!update} steps, feeding the
      byte [b] MSB first. *)
  val update_byte : width:int -> poly:int -> int -> int -> int

  (** [of_reader ~width ~poly r ~nbits] — CRC of the next [nbits] bits,
      consuming them.  Table-driven over the byte-aligned middle when the
      polynomial is one of the two built-ins and the stream holds [nbits]
      bits; raises like {!Reader.read_bit} on a short stream. *)
  val of_reader : width:int -> poly:int -> Reader.t -> nbits:int -> int

  (** [of_string ~width ~poly s] — CRC over a whole byte string
      (table-driven for the built-in polynomials). *)
  val of_string : width:int -> poly:int -> string -> int
end

(** [flip_bits s bits] — copy of the byte string [s] with each listed bit
    position (MSB-first, matching {!Reader}) inverted.  The fault-injection
    surfaces are built with this.  Raises [Invalid_argument] if a position
    lies outside the string. *)
val flip_bits : string -> int list -> string

(** [popcount v] is the number of set bits in [v] (which must be
    non-negative). *)
val popcount : int -> int

(** [bits_needed n] is the minimum field width able to represent every value
    in [0, n-1]; by convention [bits_needed 0 = 0] and [bits_needed 1 = 1]. *)
val bits_needed : int -> int

(** [flips_between a b] is the Hamming distance between two ints, the model
    used for memory-bus transition counting. *)
val flips_between : int -> int -> int
