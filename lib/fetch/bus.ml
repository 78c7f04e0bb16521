type t = {
  cfg : Config.t;
  image : string;
  mutable last_word : int;
  mutable flips : int;
  mutable beats : int;
}

let create cfg ~image = { cfg; image; last_word = 0; flips = 0; beats = 0 }

(* One big-endian 64-bit load when the field and the 8 bytes at its first
   byte lie inside the image; otherwise a byte at a time: the first byte
   masked to the field, whole middle bytes, and only the leading bits of
   the last byte, so the accumulator never holds more than [width] bits. *)
let read_bits image ~pos ~width =
  let b0 = pos lsr 3 and off = pos land 7 in
  let len = String.length image in
  if off + width <= 64 && b0 + 8 <= len then
    Int64.to_int
      (Int64.shift_right_logical
         (Int64.shift_left (String.get_int64_be image b0) off)
         (64 - width))
  else begin
    let byte k = if k < len then Char.code (String.unsafe_get image k) else 0 in
    let last = pos + width - 1 in
    let b1 = last lsr 3 and keep = (last land 7) + 1 in
    if b0 = b1 then (byte b0 lsr (8 - keep)) land ((1 lsl width) - 1)
    else begin
      let acc = ref (byte b0 land (0xFF lsr off)) in
      for k = b0 + 1 to b1 - 1 do
        acc := (!acc lsl 8) lor byte k
      done;
      (!acc lsl keep) lor (byte b1 lsr (8 - keep))
    end
  end

let drive t word =
  let f = Bits.flips_between t.last_word word in
  t.last_word <- word;
  t.flips <- t.flips + f;
  t.beats <- t.beats + 1;
  f

let fetch_line t line =
  let lb = t.cfg.Config.line_bits and bw = t.cfg.Config.bus_bits in
  let beats = (lb + bw - 1) / bw in
  let start = line * lb in
  let total = ref 0 in
  for b = 0 to beats - 1 do
    let pos = start + (b * bw) in
    let width = Int.min bw (lb - (b * bw)) in
    total := !total + drive t (read_bits t.image ~pos ~width)
  done;
  !total

let fetch_extra_bits t bits =
  let bw = t.cfg.Config.bus_bits in
  let beats = (Int.max 0 bits + bw - 1) / bw in
  let total = ref 0 in
  for _ = 1 to beats do
    (* ATT traffic content is not modelled bit-exactly; charge a half-width
       toggle as the expected transition cost of random table data. *)
    total := !total + drive t (t.last_word lxor ((1 lsl (bw / 2)) - 1))
  done;
  !total

let total_flips t = t.flips
let total_beats t = t.beats

let reset t =
  t.last_word <- 0;
  t.flips <- 0;
  t.beats <- 0
