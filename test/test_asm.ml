(* Assembly listing tests (the output side of the TINKER assembler). *)

let check = Alcotest.(check string)

let test_print_known_ops () =
  check "alu" "add r3, r1, r2"
    (Tepic.Asm.print_op
       (Tepic.Op.alu ~opcode:Tepic.Opcode.ADD ~src1:1 ~src2:2 ~dest:3 ()));
  check "predicated speculative" "(p5) <s> sub r3, r1, r2"
    (Tepic.Asm.print_op
       (Tepic.Op.alu ~spec:true ~pred:5 ~opcode:Tepic.Opcode.SUB ~src1:1
          ~src2:2 ~dest:3 ()));
  check "ldi" "ldi r4, #1024"
    (Tepic.Asm.print_op (Tepic.Op.ldi ~imm:1024 ~dest:4 ()));
  check "load" "lw r6, [r3]"
    (Tepic.Asm.print_op
       (Tepic.Op.load ~opcode:Tepic.Opcode.LW ~src1:3 ~dest:6 ()));
  check "fp load" "lw f6, [r3]"
    (Tepic.Asm.print_op
       (Tepic.Op.load ~tcs:1 ~opcode:Tepic.Opcode.LW ~src1:3 ~dest:6 ()));
  check "store" "sw [r3], r7"
    (Tepic.Asm.print_op
       (Tepic.Op.store ~opcode:Tepic.Opcode.SW ~src1:3 ~src2:7 ()));
  check "brlc with tail" "brlc bb4 ctr=r2 ;;"
    (Tepic.Asm.print_op
       (Tepic.Op.with_tail true
          (Tepic.Op.branch ~counter:2 ~opcode:Tepic.Opcode.BRLC ~target:4 ())));
  check "call" "brl bb9 link=r31"
    (Tepic.Asm.print_op
       (Tepic.Op.branch ~src1:31 ~opcode:Tepic.Opcode.BRL ~target:9 ()));
  check "ret" "ret link=r31"
    (Tepic.Asm.print_op
       (Tepic.Op.branch ~src1:31 ~opcode:Tepic.Opcode.RET ~target:0 ()))

(* The listing has teeth without a parser: change any one field of an op
   (through [Op.fields] and [Op.of_fields], so every field of the
   format's layout is reached) and its line changes.  A changed value
   that names no opcode of the format is not an op, and is skipped. *)
let prop_every_field_shows =
  let gen =
    QCheck.Gen.(
      let* op = Gen_ops.op () in
      let* masks = list_repeat (List.length (Tepic.Op.fields op)) nat in
      return (op, masks))
  in
  QCheck.Test.make ~name:"asm listing shows every field" ~count:1000
    (QCheck.make ~print:(fun (op, _) -> Tepic.Asm.print_op op) gen)
    (fun (op, masks) ->
      let line = Tepic.Asm.print_op op in
      List.for_all2
        (fun ((fd : Tepic.Format_spec.field), v) mask ->
          (* A nonzero change inside the field's width. *)
          let v' = v lxor (1 + (mask mod ((1 lsl fd.width) - 1))) in
          let lookup name =
            if name = fd.fname then v' else Tepic.Op.field_value op name
          in
          match Tepic.Op.of_fields (Tepic.Op.kind op) lookup with
          | exception Invalid_argument _ -> true
          | op' -> Tepic.Op.equal op op' || Tepic.Asm.print_op op' <> line)
        (Tepic.Op.fields op) masks)

let suite =
  [
    Alcotest.test_case "print known ops" `Quick test_print_known_ops;
    QCheck_alcotest.to_alcotest prop_every_field_shows;
  ]
