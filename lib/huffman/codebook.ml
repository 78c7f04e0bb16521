type stats = {
  entries : int;
  max_code_len : int;
  max_symbol_bits : int;
  mean_code_len : float;
  entropy_bits : float;
  payload_bits : int;
  table_bits : int;
}

type t = {
  canonical : Canonical.t;
  stats : stats;
}

let make ?max_len ~symbol_bits freq =
  let freqs = Freq.to_list freq in
  if freqs = [] then invalid_arg "Codebook.make: empty histogram";
  let tree = Tree.build freqs in
  let lens =
    match max_len with
    | Some cap when Tree.max_depth tree > cap ->
        Package_merge.lengths ~max_len:cap freqs
    | Some _ | None -> Tree.depths tree
  in
  let canonical = Canonical.of_lengths lens in
  let max_symbol_bits =
    List.fold_left (fun a (s, _) -> max a (symbol_bits s)) 0 freqs
  in
  let payload_bits =
    List.fold_left
      (fun a (s, c) ->
        let _, l = Canonical.code canonical s in
        a + (c * l))
      0 freqs
  in
  let total = Freq.total freq in
  let mean_code_len =
    if total = 0 then 0. else float_of_int payload_bits /. float_of_int total
  in
  let entries = List.length freqs in
  let max_code_len = Canonical.max_length canonical in
  (* Canonical tables store, per entry, the code length and the dictionary
     entry itself; lengths need ceil(log2(max_len+1)) bits. *)
  let len_bits = Bits.bits_needed (max_code_len + 1) in
  let table_bits =
    List.fold_left (fun a (s, _) -> a + len_bits + symbol_bits s) 0 freqs
  in
  {
    canonical;
    stats =
      {
        entries;
        max_code_len;
        max_symbol_bits;
        mean_code_len;
        entropy_bits = Freq.entropy_bits freq;
        payload_bits;
        table_bits;
      };
  }

let stats t = t.stats

let mem t sym = Canonical.mem t.canonical sym
let write t w sym = Canonical.write t.canonical w sym
let read t r = Canonical.read t.canonical r
let read_opt t r = Canonical.read_opt t.canonical r
let read_serial t r = Canonical.read_serial t.canonical r
let read_serial_opt t r = Canonical.read_serial_opt t.canonical r
let canonical t = t.canonical

let decoder_transistors t =
  Decoder_cost.transistors ~n:t.stats.max_code_len ~m:t.stats.max_symbol_bits
