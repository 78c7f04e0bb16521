let max_code_len = 12

(* [f] on each of the word's five bytes, most significant first: the byte
   order of its baseline image. *)
let iter_bytes f word =
  for k = Tepic.Format_spec.op_bytes - 1 downto 0 do
    f ((word lsr (8 * k)) land 0xff)
  done

let build program =
  let words = Tepic.Program.words program in
  (* Histogram over the bytes of every op's baseline image, block by
     block (annotation-free, code segment only). *)
  let freq = Huffman.Freq.create () in
  Array.iter (Array.iter (iter_bytes (Huffman.Freq.add freq))) words;
  let book =
    Huffman.Codebook.make ~max_len:max_code_len ~symbol_bits:(fun _ -> 8) freq
  in
  let image, offsets, sizes =
    Scheme.build_blocks words (fun w ws ->
        Array.iter (iter_bytes (Huffman.Codebook.write book w)) ws)
  in
  let counts = Array.map Array.length words in
  (* Every symbol of the block is read before any op is checked, so a bad
     op raises with the cursor past the block. *)
  let transcode_payload r w i =
    let bytes = Bytes.create (Tepic.Format_spec.op_bytes * counts.(i)) in
    for j = 0 to Bytes.length bytes - 1 do
      Bytes.set bytes j (Char.chr (Huffman.Codebook.read book r))
    done;
    let ops = Bits.Reader.of_string (Bytes.unsafe_to_string bytes) in
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
    transcode_payload;
  }
