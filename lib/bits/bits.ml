(* Unchecked native 64-bit loads and stores, byte-swapped to big-endian
   on little-endian hosts.  The word-wise kernels below bounds-check the
   8-byte window themselves; these compile to a single load or store. *)
external bytes_get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external bytes_set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external string_get64u : string -> int -> int64 = "%caml_string_get64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

let[@inline] bytes_get64_be b i =
  if Sys.big_endian then bytes_get64u b i else bswap64 (bytes_get64u b i)

let[@inline] bytes_set64_be b i v =
  if Sys.big_endian then bytes_set64u b i v else bytes_set64u b i (bswap64 v)

let[@inline] string_get64_be s i =
  if Sys.big_endian then string_get64u s i else bswap64 (string_get64u s i)

module Writer = struct
  type t = {
    mutable bytes : Bytes.t;
    mutable nbits : int;
  }

  let create ?(initial_bytes = 64) () =
    { bytes = Bytes.make (max 1 initial_bytes) '\000'; nbits = 0 }

  let length w = w.nbits

  let ensure w extra_bits =
    let needed = (w.nbits + extra_bits + 7) / 8 in
    let cap = Bytes.length w.bytes in
    if needed > cap then begin
      let cap' = max needed (2 * cap) in
      let b = Bytes.make cap' '\000' in
      Bytes.blit w.bytes 0 b 0 cap;
      w.bytes <- b
    end

  let add_bit w b =
    ensure w 1;
    if b then begin
      let byte = w.nbits lsr 3 and off = w.nbits land 7 in
      let v = Char.code (Bytes.get w.bytes byte) in
      Bytes.set w.bytes byte (Char.chr (v lor (0x80 lsr off)))
    end;
    w.nbits <- w.nbits + 1

  (* Word-wise append.  Every byte past [nbits] is zero (create/ensure make
     fresh bytes and nothing ever sets a bit past the cursor), so a field can
     be OR-ed into the buffer instead of written bit by bit.  [ensure]
     keeps 64 bits of slack, so the 8-byte window at the cursor's byte is
     always inside the buffer: a field with [off + width <= 64] (every
     field up to 57 bits wide, whatever the alignment) is one big-endian
     64-bit load, OR and store.  Wider fields at a late offset take the
     byte loop. *)
  let add_bits w ~width v =
    if width < 0 || width > 62 then
      invalid_arg "Bits.Writer.add_bits: width out of range";
    if v < 0 || (width < 62 && v lsr width <> 0) then
      invalid_arg "Bits.Writer.add_bits: value does not fit width";
    if width > 0 then begin
      ensure w 64;
      let bytes = w.bytes in
      let byte = w.nbits lsr 3 and off = w.nbits land 7 in
      if off + width <= 64 then
        bytes_set64_be bytes byte
          (Int64.logor (bytes_get64_be bytes byte)
             (Int64.shift_left (Int64.of_int v) (64 - off - width)))
      else begin
        let pos = ref w.nbits and left = ref width in
        while !left > 0 do
          let byte = !pos lsr 3 and off = !pos land 7 in
          let take = min (8 - off) !left in
          let chunk = (v lsr (!left - take)) land ((1 lsl take) - 1) in
          let cur = Char.code (Bytes.unsafe_get bytes byte) in
          Bytes.unsafe_set bytes byte
            (Char.unsafe_chr (cur lor (chunk lsl (8 - off - take))));
          pos := !pos + take;
          left := !left - take
        done
      end;
      w.nbits <- w.nbits + width
    end

  let align_byte w =
    let pad = (8 - (w.nbits land 7)) land 7 in
    for _ = 1 to pad do
      add_bit w false
    done;
    pad

  let contents w = Bytes.sub_string w.bytes 0 ((w.nbits + 7) / 8)
end

module Reader = struct
  type t = {
    data : string;
    nbits : int;
    mutable cursor : int;
  }

  let of_string s = { data = s; nbits = 8 * String.length s; cursor = 0 }
  let pos r = r.cursor
  let length r = r.nbits
  let remaining r = r.nbits - r.cursor

  let seek r bit =
    if bit < 0 || bit > r.nbits then
      invalid_arg
        (Printf.sprintf "Bits.Reader.seek: bit %d outside stream of %d bits"
           bit r.nbits);
    r.cursor <- bit

  let advance r n =
    if n < 0 || r.cursor + n > r.nbits then
      invalid_arg
        (Printf.sprintf
           "Bits.Reader.advance: %d bits from bit %d/%d out of range" n
           r.cursor r.nbits);
    r.cursor <- r.cursor + n

  (* Byte-aligned block layouts (Scheme.build_blocks) pad each block to a
     byte boundary; a decoder walking blocks back-to-back skips the padding
     with this instead of recomputing offsets. *)
  let align_byte r =
    let pad = (8 - (r.cursor land 7)) land 7 in
    let pad = min pad (r.nbits - r.cursor) in
    r.cursor <- r.cursor + pad;
    pad

  let read_bit r =
    if r.cursor >= r.nbits then
      invalid_arg
        (Printf.sprintf "Bits.Reader.read_bit: exhausted at bit %d/%d"
           r.cursor r.nbits);
    let byte = r.cursor lsr 3 and off = r.cursor land 7 in
    r.cursor <- r.cursor + 1;
    Char.code r.data.[byte] land (0x80 lsr off) <> 0

  (* One multi-byte load instead of [width] single-bit reads.  The first
     byte is masked down to its unconsumed low bits, so at most
     (7 + 56 + 7) / 8 = 8 partial bytes accumulate — 57 significant bits,
     inside OCaml's 63-bit int.

     The hot entry [unsafe_peek_bits] is deliberately straight-line: the
     classic (non-flambda) compiler never inlines a function containing a
     loop.  Huffman decode peeks at most max_len <= 20 bits (2-4 bytes),
     which the unrolled loads below serve; a wider field (a 40-bit
     baseline op) spans 5-8 bytes and is one big-endian 64-bit load, which
     holds the 7 skipped bits plus up to 56 field bits, whenever the 8
     bytes at the cursor's byte lie inside the string.  Only peeks running
     into the last 7 bytes of the stream (where the zero-padded tail law
     applies) take the loop in [peek_slow]. *)
  let peek_slow r ~width =
    let data = r.data in
    let len = String.length data in
    let byte = r.cursor lsr 3 and off = r.cursor land 7 in
    let m = (off + width + 7) lsr 3 in
    let v =
      ref
        (if byte < len then
           Char.code (String.unsafe_get data byte) land (0xff lsr off)
         else 0)
    in
    for i = 1 to m - 1 do
      let b =
        if byte + i < len then Char.code (String.unsafe_get data (byte + i))
        else 0
      in
      v := (!v lsl 8) lor b
    done;
    !v lsr ((8 * m) - off - width)

  let[@inline] unsafe_peek_bits r ~width =
    if width = 0 then 0
    else begin
      let data = r.data in
      let byte = r.cursor lsr 3 and off = r.cursor land 7 in
      let m = (off + width + 7) lsr 3 in
      if m <= 4 && byte + m <= String.length data then begin
        let v0 = Char.code (String.unsafe_get data byte) land (0xff lsr off) in
        let v =
          if m = 1 then v0
          else if m = 2 then
            (v0 lsl 8) lor Char.code (String.unsafe_get data (byte + 1))
          else if m = 3 then
            (v0 lsl 16)
            lor (Char.code (String.unsafe_get data (byte + 1)) lsl 8)
            lor Char.code (String.unsafe_get data (byte + 2))
          else
            (v0 lsl 24)
            lor (Char.code (String.unsafe_get data (byte + 1)) lsl 16)
            lor (Char.code (String.unsafe_get data (byte + 2)) lsl 8)
            lor Char.code (String.unsafe_get data (byte + 3))
        in
        v lsr ((8 * m) - off - width)
      end
      else if byte + 8 <= String.length data then
        Int64.to_int
          (Int64.shift_right_logical
             (Int64.shift_left (string_get64_be data byte) off)
             (64 - width))
      else peek_slow r ~width
    end

  let peek_bits r ~width =
    if width < 0 || width > 56 then
      invalid_arg
        (Printf.sprintf "Bits.Reader.peek_bits: width %d out of range" width);
    unsafe_peek_bits r ~width

  let[@inline] unsafe_advance r n = r.cursor <- r.cursor + n

  let read_bits r ~width =
    if width < 0 || width > 62 then
      invalid_arg
        (Printf.sprintf
           "Bits.Reader.read_bits: width %d out of range at bit %d/%d" width
           r.cursor r.nbits);
    if width <= 56 && r.nbits - r.cursor >= width then begin
      let v = unsafe_peek_bits r ~width in
      r.cursor <- r.cursor + width;
      v
    end
    else begin
      let v = ref 0 in
      for _ = 1 to width do
        v := (!v lsl 1) lor (if read_bit r then 1 else 0)
      done;
      !v
    end

  let read_bit_opt r = if r.cursor >= r.nbits then None else Some (read_bit r)

  let read_bits_opt r ~width =
    if width < 0 || width > 62 then None
    else if r.nbits - r.cursor < width then None
    else Some (read_bits r ~width)
end

(* Bitwise CRCs, MSB-first, zero initial value and no final xor — the guard
   words of the protected block framing (Scheme.protect) and of protected
   decode tables.  Any CRC with these generator polynomials detects every
   single-bit error and every burst shorter than the register.

   The bit-at-a-time [update] is the definition; whole-byte paths go through
   256-entry tables derived from it (test_bits carries the differential
   property).  The tables are built eagerly at module initialization so no
   lazy state is ever forced from a worker domain. *)
module Crc = struct
  let crc8_poly = 0x07 (* x^8 + x^2 + x + 1 *)
  let crc16_poly = 0x1021 (* CCITT: x^16 + x^12 + x^5 + 1 *)

  let update ~width ~poly crc bit =
    let top = 1 lsl (width - 1) in
    let mask = (1 lsl width) - 1 in
    let crc = if bit then crc lxor top else crc in
    let crc = crc lsl 1 in
    let crc = if crc land (1 lsl width) <> 0 then crc lxor poly else crc in
    crc land mask

  let update_byte ~width ~poly crc b =
    let crc = ref crc in
    for i = 7 downto 0 do
      crc := update ~width ~poly !crc ((b lsr i) land 1 = 1)
    done;
    !crc

  let make_table ~width ~poly = Array.init 256 (update_byte ~width ~poly 0)
  let crc8_table = make_table ~width:8 ~poly:crc8_poly
  let crc16_table = make_table ~width:16 ~poly:crc16_poly

  let table_for ~width ~poly =
    if width = 8 && poly = crc8_poly then Some crc8_table
    else if width = 16 && poly = crc16_poly then Some crc16_table
    else None

  (* The standard MSB-first byte step: shift the register one byte and fold
     the outgoing byte (xor incoming data) back in through the table. *)
  let step_byte ~width tbl crc b =
    if width = 8 then Array.unsafe_get tbl (crc lxor b)
    else
      ((crc lsl 8) lxor Array.unsafe_get tbl (((crc lsr (width - 8)) lxor b) land 0xff))
      land ((1 lsl width) - 1)

  let of_reader ~width ~poly r ~nbits =
    match table_for ~width ~poly with
    | Some tbl when nbits > 8 && Reader.remaining r >= nbits ->
        let crc = ref 0 in
        let left = ref nbits in
        (* Align to a byte boundary bit by bit, then run the byte table over
           the aligned middle, then finish the trailing partial byte. *)
        while Reader.pos r land 7 <> 0 && !left > 0 do
          crc := update ~width ~poly !crc (Reader.read_bit r);
          decr left
        done;
        let whole = !left lsr 3 in
        if whole > 0 then begin
          let start = Reader.pos r lsr 3 in
          let data = r.Reader.data in
          for i = start to start + whole - 1 do
            crc := step_byte ~width tbl !crc (Char.code (String.unsafe_get data i))
          done;
          Reader.advance r (8 * whole);
          left := !left - (8 * whole)
        end;
        for _ = 1 to !left do
          crc := update ~width ~poly !crc (Reader.read_bit r)
        done;
        !crc
    | _ ->
        let crc = ref 0 in
        for _ = 1 to nbits do
          crc := update ~width ~poly !crc (Reader.read_bit r)
        done;
        !crc

  let of_string ~width ~poly s =
    match table_for ~width ~poly with
    | Some tbl ->
        let crc = ref 0 in
        String.iter (fun c -> crc := step_byte ~width tbl !crc (Char.code c)) s;
        !crc
    | None ->
        let r = Reader.of_string s in
        of_reader ~width ~poly r ~nbits:(8 * String.length s)
end

let flip_bits s bits =
  let b = Bytes.of_string s in
  let nbits = 8 * Bytes.length b in
  List.iter
    (fun k ->
      if k < 0 || k >= nbits then
        invalid_arg
          (Printf.sprintf "Bits.flip_bits: bit %d outside image of %d bits" k
             nbits);
      let byte = k lsr 3 and off = k land 7 in
      Bytes.set b byte
        (Char.chr (Char.code (Bytes.get b byte) lxor (0x80 lsr off))))
    bits;
  Bytes.unsafe_to_string b

(* Word-parallel count: 2-bit, 4-bit and 8-bit partial sums, then the
   bytes added by shifts.  The masks stop at bit 61, the top bit of a
   non-negative int, and no partial sum carries out of its byte. *)
let popcount v =
  if v < 0 then invalid_arg "Bits.popcount: negative";
  let pairs = 0x3333_3333_3333_3333 in
  let v = v - ((v lsr 1) land 0x1555_5555_5555_5555) in
  let v = (v land pairs) + ((v lsr 2) land pairs) in
  let v = (v + (v lsr 4)) land 0x0F0F_0F0F_0F0F_0F0F in
  let v = v + (v lsr 8) in
  let v = v + (v lsr 16) in
  (v + (v lsr 32)) land 0x7F

let bits_needed n =
  if n <= 0 then 0
  else if n = 1 then 1
  else
    let rec go w = if 1 lsl w >= n then w else go (w + 1) in
    go 1

let flips_between a b = popcount (a lxor b)
