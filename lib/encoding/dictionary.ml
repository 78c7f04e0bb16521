let max_seq_len = 4
let max_entries = 256

let op_bits = Tepic.Format_spec.op_bits

(* Candidate sequences: every 1..max_seq_len run inside a block, counted by
   the tuple of 40-bit images. *)
let collect_candidates program =
  let counts : (int list, int ref) Hashtbl.t = Hashtbl.create 4096 in
  let note seq =
    match Hashtbl.find_opt counts seq with
    | Some r -> incr r
    | None -> Hashtbl.add counts seq (ref 1)
  in
  Array.iter
    (fun b ->
      let ops =
        Array.of_list
          (List.map Tepic.Encode.to_int (Tepic.Program.block_ops b))
      in
      let n = Array.length ops in
      for i = 0 to n - 1 do
        for len = 1 to min max_seq_len (n - i) do
          note (Array.to_list (Array.sub ops i len))
        done
      done)
    program.Tepic.Program.blocks;
  counts

(* Pick entries greedily by estimated saving.  A literal op costs 41 bits
   in this format; a reference costs 1 + index bits; a dictionary entry
   costs len * 40 bits of ROM. *)
let select_entries counts =
  let idx_bits = Bits.bits_needed max_entries in
  let scored =
    Hashtbl.fold
      (fun seq r acc ->
        let len = List.length seq in
        let saving =
          (!r * ((len * (op_bits + 1)) - (1 + idx_bits))) - (len * op_bits)
        in
        if !r >= 2 && saving > 0 then (saving, seq) :: acc else acc)
      counts []
  in
  let sorted = List.sort (fun (a, s1) (b, s2) ->
      if a <> b then compare b a else compare s1 s2) scored in
  let rec take k = function
    | [] -> []
    | (_, seq) :: rest -> if k = 0 then [] else seq :: take (k - 1) rest
  in
  Array.of_list (take max_entries sorted)

let entries_of_program program = select_entries (collect_candidates program)
let index_bits ~nentries = max 1 (Bits.bits_needed (max 2 nentries))

let build program =
  let entries = entries_of_program program in
  let nentries = Array.length entries in
  let idx_bits = index_bits ~nentries in
  let index : (int list, int) Hashtbl.t = Hashtbl.create 512 in
  Array.iteri (fun i seq -> Hashtbl.replace index seq i) entries;
  let image, offsets, sizes =
    Scheme.build_blocks program (fun w ops ->
        let arr = Array.of_list (List.map Tepic.Encode.to_int ops) in
        let n = Array.length arr in
        let i = ref 0 in
        while !i < n do
          (* Longest dictionary match starting here. *)
          let matched = ref 0 in
          for len = max_seq_len downto 1 do
            if !matched = 0 && !i + len <= n then begin
              let seq = Array.to_list (Array.sub arr !i len) in
              if Hashtbl.mem index seq then matched := len
            end
          done;
          if !matched > 0 then begin
            let seq = Array.to_list (Array.sub arr !i !matched) in
            Bits.Writer.add_bit w true;
            Bits.Writer.add_bits w ~width:idx_bits (Hashtbl.find index seq);
            i := !i + !matched
          end
          else begin
            Bits.Writer.add_bit w false;
            Bits.Writer.add_bits w ~width:op_bits arr.(!i);
            incr i
          end
        done)
  in
  let op_counts =
    Array.map
      (fun b -> Tepic.Program.block_num_ops b)
      program.Tepic.Program.blocks
  in
  let decode_payload r i =
    let out = ref [] in
    let remaining = ref op_counts.(i) in
    while !remaining > 0 do
      if Bits.Reader.read_bit r then begin
        let idx = Bits.Reader.read_bits r ~width:idx_bits in
        if idx >= nentries then failwith "Dictionary: bad reference";
        List.iter
          (fun v -> out := Tepic.Encode.of_int v :: !out)
          entries.(idx);
        remaining := !remaining - List.length entries.(idx)
      end
      else begin
        out := Tepic.Encode.of_int (Bits.Reader.read_bits r ~width:op_bits) :: !out;
        decr remaining
      end
    done;
    List.rev !out
  in
  (* The transcoder's entries, as baseline words ready to append. *)
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
    decode_payload;
    transcode_payload;
  }
