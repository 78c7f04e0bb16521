let build program =
  let image, offsets, sizes =
    Scheme.build_blocks program (fun w ops ->
        List.iter (Tepic.Encode.encode w) ops)
  in
  let counts =
    Array.map
      (fun b -> Tepic.Program.block_num_ops b)
      program.Tepic.Program.blocks
  in
  let decode_payload r i =
    List.init counts.(i) (fun _ -> Tepic.Encode.decode r)
  in
  (* One peek per op.  Encode.decode checks the opcode point once it has
     read the 9-bit prefix, so the prefix is consumed before [normalize]
     can raise, and the rest after.  An op cut short by the end of the
     stream takes the Op.t path, whose truncation errors it must
     reproduce. *)
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
    decode_payload;
    transcode_payload;
  }
