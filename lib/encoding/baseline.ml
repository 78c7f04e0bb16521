let build program =
  let words = Tepic.Program.words program in
  let image, offsets, sizes =
    Scheme.build_blocks words (fun w ws ->
        Array.iter (Bits.Writer.add_bits w ~width:Tepic.Format_spec.op_bits) ws)
  in
  let counts = Array.map Array.length words in
  (* One peek per op.  The 9-bit prefix is consumed before [normalize]
     checks the opcode point, so an undefined point raises with the cursor
     past the prefix, as Encode.decode does.  An op cut short by the end
     of the stream goes through Encode.decode, which raises at the field
     that runs out. *)
  let op_bits = Tepic.Format_spec.op_bits
  and prefix_bits = Tepic.Format_spec.prefix_bits in
  let transcode_payload r w i =
    for _ = 1 to counts.(i) do
      if Bits.Reader.remaining r >= op_bits then begin
        let v = Bits.Reader.unsafe_peek_bits r ~width:op_bits in
        Bits.Reader.unsafe_advance r prefix_bits;
        let v = Tepic.Encode.normalize v in
        Bits.Reader.unsafe_advance r (op_bits - prefix_bits);
        Bits.Writer.add_bits w ~width:op_bits v
      end
      else Tepic.Encode.encode w (Tepic.Encode.decode r)
    done
  in
  {
    Scheme.name = "base";
    image;
    code_bits = 8 * String.length image;
    table_bits = 0;
    block_offset_bits = offsets;
    block_bits = sizes;
    frame = Scheme.no_frame;
    decoder =
      { dict_entries = 0; max_code_bits = 0; entry_bits = 0; transistors = 0 };
    books = [];
    model =
      [
        Scheme.Fixed_bits
          {
            label = "op";
            min_bits = Tepic.Format_spec.op_bits;
            max_bits = Tepic.Format_spec.op_bits;
          };
      ];
    transcode_payload;
  }
