let buf_reg cls i = Printf.sprintf "%s%d" (Reg.cls_to_string cls) i

let trailer buf key value = Buffer.add_string buf (Printf.sprintf " %s=%s" key value)
let trailer_int buf key v = trailer buf key (string_of_int v)
let trailer_bool buf key b = if b then trailer buf key "1"

let print_op (op : Op.t) =
  let b = Buffer.create 64 in
  if op.Op.pred <> 0 then Buffer.add_string b (Printf.sprintf "(p%d) " op.Op.pred);
  if op.Op.spec then Buffer.add_string b "<s> ";
  let mn oc = Opcode.mnemonic oc in
  (match op.Op.body with
  | Op.Alu { opcode; src1; src2; bhwx; dest; l1 } ->
      Buffer.add_string b
        (Printf.sprintf "%s r%d, r%d, r%d" (mn opcode) dest src1 src2);
      if bhwx <> 2 then trailer_int b "bhwx" bhwx;
      trailer_bool b "l1" l1
  | Op.Cmpp { opcode; src1; src2; bhwx; d1; dest; l1 } ->
      Buffer.add_string b
        (Printf.sprintf "%s p%d, r%d, r%d" (mn opcode) dest src1 src2);
      if bhwx <> 2 then trailer_int b "bhwx" bhwx;
      if d1 <> 0 then trailer_int b "d1" d1;
      trailer_bool b "l1" l1
  | Op.Ldi { imm; dest; l1 } ->
      Buffer.add_string b (Printf.sprintf "ldi r%d, #%d" dest imm);
      trailer_bool b "l1" l1
  | Op.Fpu { opcode; src1; src2; sd; tss; dest; l1 } ->
      let dc = if opcode = Opcode.FTOI then Reg.Gpr else Reg.Fpr in
      let s1c = if opcode = Opcode.ITOF then Reg.Gpr else Reg.Fpr in
      Buffer.add_string b
        (Printf.sprintf "%s %s, %s, %s" (mn opcode) (buf_reg dc dest)
           (buf_reg s1c src1) (buf_reg Reg.Fpr src2));
      trailer_bool b "sd" sd;
      if tss <> 0 then trailer_int b "tss" tss;
      trailer_bool b "l1" l1
  | Op.Load { opcode; src1; bhwx; scs; tcs; lat; dest } ->
      let dc = if tcs = 1 then Reg.Fpr else Reg.Gpr in
      Buffer.add_string b
        (Printf.sprintf "%s %s, [r%d]" (mn opcode) (buf_reg dc dest) src1);
      if bhwx <> 2 then trailer_int b "bhwx" bhwx;
      if scs <> 0 then trailer_int b "scs" scs;
      if tcs > 1 then trailer_int b "tcs" tcs;
      if lat <> 2 then trailer_int b "lat" lat
  | Op.Store { opcode; src1; src2; bhwx; tcs; l1 } ->
      let sc = if tcs = 1 then Reg.Fpr else Reg.Gpr in
      Buffer.add_string b
        (Printf.sprintf "%s [r%d], %s" (mn opcode) src1 (buf_reg sc src2));
      if bhwx <> 2 then trailer_int b "bhwx" bhwx;
      if tcs > 1 then trailer_int b "tcs" tcs;
      trailer_bool b "l1" l1
  | Op.Branch { opcode; src1; counter; target } -> (
      match opcode with
      | Opcode.RET ->
          Buffer.add_string b (Printf.sprintf "ret link=r%d" src1);
          if counter <> 0 then trailer b "ctr" (buf_reg Reg.Gpr counter);
          if target <> 0 then trailer_int b "target" target
      | Opcode.BRL ->
          Buffer.add_string b (Printf.sprintf "brl bb%d link=r%d" target src1);
          if counter <> 0 then trailer b "ctr" (buf_reg Reg.Gpr counter)
      | Opcode.BRLC ->
          Buffer.add_string b (Printf.sprintf "brlc bb%d ctr=r%d" target counter);
          if src1 <> 0 then trailer b "src1" (buf_reg Reg.Gpr src1)
      | _ ->
          Buffer.add_string b (Printf.sprintf "%s bb%d" (mn opcode) target);
          if src1 <> 0 then trailer b "src1" (buf_reg Reg.Gpr src1);
          if counter <> 0 then trailer b "ctr" (buf_reg Reg.Gpr counter)));
  if op.Op.tail then Buffer.add_string b " ;;";
  Buffer.contents b

let print_program (p : Program.t) =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "# program %s (%d blocks, %d ops)\n" p.Program.name
       (Program.num_blocks p) (Program.num_ops p));
  Array.iter
    (fun (blk : Program.block) ->
      Buffer.add_string b (Printf.sprintf "bb%d:\n" blk.Program.id);
      List.iter
        (fun mop ->
          List.iter
            (fun op -> Buffer.add_string b ("  " ^ print_op op ^ "\n"))
            (Mop.ops mop))
        blk.Program.mops)
    p.Program.blocks;
  Buffer.contents b
