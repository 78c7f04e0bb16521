let max_code_len = 12

let build program =
  (* Histogram over the bytes of every op's baseline image, block by
     block (annotation-free, code segment only). *)
  let freq = Huffman.Freq.create () in
  Tepic.Program.iter_ops
    (fun op ->
      String.iter
        (fun c -> Huffman.Freq.add freq (Char.code c))
        (Tepic.Encode.encode_ops [ op ]))
    program;
  let book =
    Huffman.Codebook.make ~max_len:max_code_len ~symbol_bits:(fun _ -> 8) freq
  in
  let image, offsets, sizes =
    Scheme.build_blocks program (fun w ops ->
        String.iter
          (fun c -> Huffman.Codebook.write book w (Char.code c))
          (Tepic.Encode.encode_ops ops))
  in
  let counts =
    Array.map
      (fun b -> Tepic.Program.block_num_ops b)
      program.Tepic.Program.blocks
  in
  let read_block r i =
    let bytes = Bytes.create (Tepic.Format_spec.op_bytes * counts.(i)) in
    for j = 0 to Bytes.length bytes - 1 do
      Bytes.set bytes j (Char.chr (Huffman.Codebook.read book r))
    done;
    Bytes.unsafe_to_string bytes
  in
  let decode_payload r i =
    Tepic.Encode.decode_ops ~count:counts.(i) (read_block r i)
  in
  (* Like the Op.t path, every symbol of the block is read before any op
     is checked, so a bad op raises with the cursor past the block. *)
  let transcode_payload r w i =
    let ops = Bits.Reader.of_string (read_block r i) in
    for _ = 1 to counts.(i) do
      Bits.Writer.add_bits w ~width:Tepic.Format_spec.op_bits
        (Tepic.Encode.normalize
           (Bits.Reader.read_bits ops ~width:Tepic.Format_spec.op_bits))
    done
  in
  let stats = Huffman.Codebook.stats book in
  {
    Scheme.name = "byte";
    image;
    code_bits = 8 * String.length image;
    table_bits = stats.Huffman.Codebook.table_bits;
    block_offset_bits = offsets;
    block_bits = sizes;
    frame = Scheme.no_frame;
    decoder =
      {
        dict_entries = stats.Huffman.Codebook.entries;
        max_code_bits = stats.Huffman.Codebook.max_code_len;
        entry_bits = stats.Huffman.Codebook.max_symbol_bits;
        transistors = Huffman.Codebook.decoder_transistors book;
      };
    books = [ ("byte", book) ];
    model =
      [
        Scheme.Book_codewords
          { book = "byte"; max_per_op = Tepic.Format_spec.op_bytes };
      ];
    decode_payload;
    transcode_payload;
  }
