let max_code_len = 20

let build program =
  let freq = Huffman.Freq.create () in
  Tepic.Program.iter_ops
    (fun op -> Huffman.Freq.add freq (Tepic.Encode.to_int op))
    program;
  let book =
    Huffman.Codebook.make ~max_len:max_code_len
      ~symbol_bits:(fun _ -> Tepic.Format_spec.op_bits)
      freq
  in
  let image, offsets, sizes =
    Scheme.build_blocks program (fun w ops ->
        List.iter
          (fun op -> Huffman.Codebook.write book w (Tepic.Encode.to_int op))
          ops)
  in
  let counts =
    Array.map
      (fun b -> Tepic.Program.block_num_ops b)
      program.Tepic.Program.blocks
  in
  let decode_payload r i =
    List.init counts.(i) (fun _ ->
        Tepic.Encode.of_int (Huffman.Codebook.read book r))
  in
  let transcode_payload r w i =
    for _ = 1 to counts.(i) do
      Bits.Writer.add_bits w ~width:Tepic.Format_spec.op_bits
        (Tepic.Encode.normalize (Huffman.Codebook.read book r))
    done
  in
  let stats = Huffman.Codebook.stats book in
  {
    Scheme.name = "full";
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
    books = [ ("full", book) ];
    model = [ Scheme.Book_codewords { book = "full"; max_per_op = 1 } ];
    decode_payload;
    transcode_payload;
  }
