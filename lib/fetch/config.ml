type predictor = Two_bit | Gshare of int

type t = {
  line_bits : int;
  cache_bytes : int;
  ways : int;
  l0_ops : int;
  atb_entries : int;
  atb_miss_penalty : int;
  bus_bits : int;
  predictor : predictor;
  prefetch_next : bool;
}

let default =
  {
    line_bits = 240;
    cache_bytes = 16 * 1024;
    ways = 2;
    l0_ops = 32;
    atb_entries = 128;
    atb_miss_penalty = 2;
    bus_bits = 32;
    predictor = Two_bit;
    prefetch_next = false;
  }

let default_base = { default with cache_bytes = 20 * 1024 }

type model = Base | Tailored | Compressed

(* The baseline layout fetches uncompressed code from the 20 KB cache, the
   tailored ISA from the 16 KB cache with its extra miss stage, and every
   Huffman or dictionary image is cached compressed behind the L0 buffer. *)
let of_scheme = function
  | "base" -> (Base, default_base)
  | "tailored" -> (Tailored, default)
  | _ -> (Compressed, default)

(* Table 1 of the paper, transcribed.  [n] is the number of memory lines
   needed to fetch the whole block. *)
let penalty model ~predicted ~cache_hit ~buffer_hit ~lines =
  let n = Int.max 1 lines in
  match (model, predicted, cache_hit, buffer_hit) with
  (* Base and Tailored have no L0 buffer: the buffer flag is ignored. *)
  | Base, true, true, _ -> 1
  | Base, true, false, _ -> 1 + (n - 1)
  | Base, false, true, _ -> 2
  | Base, false, false, _ -> 8 + (n - 1)
  | Tailored, true, true, _ -> 1
  | Tailored, true, false, _ -> 2 + (n - 1)
  | Tailored, false, true, _ -> 2
  | Tailored, false, false, _ -> 9 + (n - 1)
  (* Compressed: a buffer hit serves fully-decompressed ops in one cycle
     regardless of anything else. *)
  | Compressed, _, _, true -> 1
  | Compressed, true, true, false -> 1 + (n - 1)
  | Compressed, true, false, false -> 3 + (n - 1)
  | Compressed, false, true, false -> 2 + (n - 1)
  | Compressed, false, false, false -> 10 + (n - 1)

let lines_of_bits t bits =
  if t.line_bits <= 0 then invalid_arg "Config.lines_of_bits";
  Int.max 1 ((Int.max 1 bits + t.line_bits - 1) / t.line_bits)

let num_lines t = 8 * t.cache_bytes / t.line_bits

let num_sets t =
  let lines = num_lines t in
  Int.max 1 (lines / t.ways)

(* The one line-mapping rule: the fetch models' line geometry and the
   static timing analysis call this.  The ATT's per-block line counts
   ([Att.build]) repeat its formula, because lib/encoding cannot depend on
   lib/fetch; the test "line_span agrees with the ATT" keeps the two
   equal on every block of a real image. *)
let line_span t ~offset_bits ~size_bits =
  if t.line_bits <= 0 then invalid_arg "Config.line_span";
  let first = offset_bits / t.line_bits in
  let last = (offset_bits + Int.max 1 size_bits - 1) / t.line_bits in
  (first, last)
