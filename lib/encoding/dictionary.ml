let max_seq_len = 4
let max_entries = 256

let op_bits = Tepic.Format_spec.op_bits

(* Op sequences as keys: windows of a block's baseline words.  A word's
   low bits are its PRED field, mostly zero, so the hash mixes every word
   in and folds the high bits of the sum down before the table masks its
   low bits. *)
module Seq_table = Hashtbl.Make (struct
  type t = int array

  let equal (a : int array) b =
    let n = Array.length a in
    n = Array.length b
    &&
    let rec go i = i = n || (a.(i) = b.(i) && go (i + 1)) in
    go 0

  let hash a =
    let h = ref (Array.length a) in
    Array.iter (fun v -> h := (!h * 0x100000001b3) + v) a;
    let h = !h lxor (!h lsr 29) in
    let h = h * 0x2545f4914f6cdd1d in
    (h lxor (h lsr 32)) land max_int
end)

(* Candidate sequences: every 1..max_seq_len run inside a block, counted by
   the tuple of 40-bit images. *)
let collect_candidates words =
  let counts = Seq_table.create 4096 in
  Array.iter
    (fun ops ->
      let n = Array.length ops in
      for i = 0 to n - 1 do
        for len = 1 to min max_seq_len (n - i) do
          let seq = Array.sub ops i len in
          match Seq_table.find_opt counts seq with
          | Some r -> incr r
          | None -> Seq_table.add counts seq (ref 1)
        done
      done)
    words;
  counts

(* Pick entries greedily by estimated saving.  A literal op costs 41 bits
   in this format; a reference costs 1 + index bits; a dictionary entry
   costs len * 40 bits of ROM. *)
let select_entries counts =
  let idx_bits = Bits.bits_needed max_entries in
  let scored =
    Seq_table.fold
      (fun seq r acc ->
        let len = Array.length seq in
        let saving =
          (!r * ((len * (op_bits + 1)) - (1 + idx_bits))) - (len * op_bits)
        in
        if !r >= 2 && saving > 0 then (saving, Array.to_list seq) :: acc
        else acc)
      counts []
  in
  let sorted = List.sort (fun (a, s1) (b, s2) ->
      if a <> b then compare b a else compare s1 s2) scored in
  let rec take k = function
    | [] -> []
    | (_, seq) :: rest -> if k = 0 then [] else seq :: take (k - 1) rest
  in
  Array.of_list (take max_entries sorted)

let entries_of_words words = select_entries (collect_candidates words)
let entries_of_program program = entries_of_words (Tepic.Program.words program)
let index_bits ~nentries = max 1 (Bits.bits_needed (max 2 nentries))

let build program =
  let words = Tepic.Program.words program in
  let entries = entries_of_words words in
  let nentries = Array.length entries in
  let idx_bits = index_bits ~nentries in
  let index = Seq_table.create 512 in
  Array.iteri (fun i seq -> Seq_table.replace index (Array.of_list seq) i) entries;
  let image, offsets, sizes =
    Scheme.build_blocks words (fun w arr ->
        let n = Array.length arr in
        let i = ref 0 in
        while !i < n do
          (* Longest dictionary match starting here. *)
          let rec longest len =
            if len = 0 then None
            else
              match Seq_table.find_opt index (Array.sub arr !i len) with
              | Some idx -> Some (idx, len)
              | None -> longest (len - 1)
          in
          match longest (min max_seq_len (n - !i)) with
          | Some (idx, len) ->
              Bits.Writer.add_bit w true;
              Bits.Writer.add_bits w ~width:idx_bits idx;
              i := !i + len
          | None ->
              Bits.Writer.add_bit w false;
              Bits.Writer.add_bits w ~width:op_bits arr.(!i);
              incr i
        done)
  in
  let op_counts = Array.map Array.length words in
  (* The entries, as baseline words ready to append. *)
  let entry_words =
    Array.map
      (fun seq -> Array.of_list (List.map Tepic.Encode.normalize seq))
      entries
  in
  let transcode_payload r w i =
    let remaining = ref op_counts.(i) in
    while !remaining > 0 do
      if Bits.Reader.read_bit r then begin
        let idx = Bits.Reader.read_bits r ~width:idx_bits in
        if idx >= nentries then failwith "Dictionary: bad reference";
        let words = entry_words.(idx) in
        Array.iter (Bits.Writer.add_bits w ~width:op_bits) words;
        remaining := !remaining - Array.length words
      end
      else begin
        Bits.Writer.add_bits w ~width:op_bits
          (Tepic.Encode.normalize (Bits.Reader.read_bits r ~width:op_bits));
        decr remaining
      end
    done
  in
  let table_bits =
    Array.fold_left (fun a seq -> a + (List.length seq * op_bits)) 0 entries
    (* per-entry length field *)
    + (nentries * Bits.bits_needed (max_seq_len + 1))
  in
  let max_entry_len =
    Array.fold_left (fun a seq -> max a (List.length seq)) 0 entries
  in
  {
    Scheme.name = "dict";
    image;
    code_bits = 8 * String.length image;
    table_bits;
    block_offset_bits = offsets;
    block_bits = sizes;
    frame = Scheme.no_frame;
    decoder =
      {
        dict_entries = nentries;
        max_code_bits = 1 + idx_bits;
        entry_bits = max_entry_len * op_bits;
        (* An indexed ROM, not a Huffman mux tree: no tree cost. *)
        transistors = 0;
      };
    books = [];
    (* Worst case per op: a literal token (flag + 40-bit image).  Best
       case: one reference token amortized over a max_seq_len-op entry. *)
    model =
      [
        Scheme.Fixed_bits
          {
            label = "dict-token";
            min_bits = (1 + idx_bits) / max_seq_len;
            max_bits = 1 + op_bits;
          };
      ];
    transcode_payload;
  }
