(* The op-level encoders as they stood before every scheme builder moved
   onto the program's baseline words: [Encode.to_int] as a fold over
   [Op.fields], and the tailored encoder's per-op walk over the same
   fields with its per-field width, class and map lookups.  Kept as the
   reference oracles the word-driven encoders are compared against.
   [map_new] is the tailored module's private dense-map lookup, restated
   over the published [to_new] table. *)

let to_int op =
  List.fold_left
    (fun acc (fd, v) -> (acc lsl fd.Tepic.Format_spec.width) lor v)
    0 (Tepic.Op.fields op)

module Tailored = struct
  open Encoding.Tailored

  let map_new m v =
    match Hashtbl.find_opt m.to_new v with
    | Some i -> i
    | None -> invalid_arg "Tailored: value outside the tailored map"

  let encode_op spec w (op : Tepic.Op.t) =
    let opcode = Tepic.Op.opcode op in
    let kind = Tepic.Opcode.kind opcode in
    let ty = Tepic.Opcode.optype opcode in
    Bits.Writer.add_bits w ~width:1 (if op.Tepic.Op.tail then 1 else 0);
    if spec.spec_bit then
      Bits.Writer.add_bits w ~width:1 (if op.Tepic.Op.spec then 1 else 0);
    Bits.Writer.add_bits w ~width:2 (Tepic.Opcode.optype_code ty);
    let omap = List.assoc ty spec.opcode_maps in
    Bits.Writer.add_bits w ~width:spec.opcode_bits
      (map_new omap (Tepic.Opcode.code opcode));
    let tcs = try Tepic.Op.field_value op "TCS" with Not_found -> 0 in
    List.iter
      (fun (fd, v) ->
        let name = fd.Tepic.Format_spec.fname in
        if List.mem name [ "T"; "S"; "OPT"; "OPCODE" ] || is_reserved name then
          ()
        else begin
          let width = field_width spec kind fd in
          let encoded =
            match reg_class_of_field opcode ~tcs name with
            | Some c -> map_new (reg_map spec c) v
            | None -> if is_raw name then v else map_new (field_map spec name) v
          in
          if width > 0 then Bits.Writer.add_bits w ~width encoded
          else if encoded <> 0 then
            invalid_arg "Tailored.encode_op: nonzero value in zero-width field"
        end)
      (Tepic.Op.fields op)

  (* The tailored image of [program] under [spec], laid out the way
     [Scheme.build_blocks] lays it out: each block byte-aligned. *)
  let image spec program =
    let w = Bits.Writer.create () in
    Array.iter
      (fun b ->
        List.iter (encode_op spec w) (Tepic.Program.block_ops b);
        ignore (Bits.Writer.align_byte w))
      program.Tepic.Program.blocks;
    Bits.Writer.contents w
end
