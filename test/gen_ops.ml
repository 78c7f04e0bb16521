(* QCheck generators for random-but-valid TEPIC operations and programs,
   shared across test suites. *)

open QCheck.Gen

let reg = int_range 0 31
let pred = int_range 0 31

let alu_opcode =
  oneofl
    Tepic.Opcode.
      [ ADD; SUB; MUL; DIV; REM; AND; OR; XOR; NAND; NOR; SHL; SHR; SRA; MOV;
        ABS; MIN; MAX ]

let cmpp_opcode =
  oneofl
    Tepic.Opcode.
      [ CMPP_EQ; CMPP_NE; CMPP_LT; CMPP_LE; CMPP_GT; CMPP_GE; CMPP_LTU;
        CMPP_GEU ]

let fpu_opcode =
  oneofl
    Tepic.Opcode.
      [ FADD; FSUB; FMUL; FDIV; FABS; FNEG; FSQRT; FMIN; FMAX; FCMP; ITOF;
        FTOI; FMOV ]

let load_opcode = oneofl Tepic.Opcode.[ LB; LH; LW; LX ]
let store_opcode = oneofl Tepic.Opcode.[ SB; SH; SW; SX ]
let branch_opcode = oneofl Tepic.Opcode.[ BR; BRCT; BRCF; BRL; RET; BRLC ]

(* ~max_target bounds branch targets so generated ops can live in small
   synthetic programs. *)
let op ?(max_target = 65535) () =
  let* spec = bool in
  let* pred = pred in
  let* choice = int_range 0 6 in
  match choice with
  | 0 ->
      let* opcode = alu_opcode and* src1 = reg and* src2 = reg and* dest = reg in
      let* bhwx = int_range 0 3 and* l1 = bool in
      return (Tepic.Op.alu ~spec ~pred ~bhwx ~l1 ~opcode ~src1 ~src2 ~dest ())
  | 1 ->
      let* opcode = cmpp_opcode and* src1 = reg and* src2 = reg and* dest = reg in
      let* bhwx = int_range 0 3 and* d1 = int_range 0 7 and* l1 = bool in
      return
        (Tepic.Op.cmpp ~spec ~pred ~bhwx ~d1 ~l1 ~opcode ~src1 ~src2 ~dest ())
  | 2 ->
      let* imm = int_range 0 ((1 lsl 20) - 1) and* dest = reg and* l1 = bool in
      return (Tepic.Op.ldi ~spec ~pred ~l1 ~imm ~dest ())
  | 3 ->
      let* opcode = fpu_opcode and* src1 = reg and* src2 = reg and* dest = reg in
      let* sd = bool and* tss = int_range 0 7 and* l1 = bool in
      return (Tepic.Op.fpu ~spec ~pred ~sd ~tss ~l1 ~opcode ~src1 ~src2 ~dest ())
  | 4 ->
      let* opcode = load_opcode and* src1 = reg and* dest = reg in
      let* bhwx = int_range 0 3
      and* scs = int_range 0 3
      and* tcs = int_range 0 1
      and* lat = int_range 0 31 in
      return (Tepic.Op.load ~spec ~pred ~bhwx ~scs ~tcs ~lat ~opcode ~src1 ~dest ())
  | 5 ->
      let* opcode = store_opcode and* src1 = reg and* src2 = reg in
      let* bhwx = int_range 0 3 and* tcs = int_range 0 1 in
      return (Tepic.Op.store ~spec ~pred ~bhwx ~tcs ~opcode ~src1 ~src2 ())
  | _ ->
      let* opcode = branch_opcode and* src1 = reg and* counter = reg in
      let* target = int_range 0 max_target in
      return (Tepic.Op.branch ~spec ~pred ~src1 ~counter ~opcode ~target ())

(* [op] with a load's or store's TCS set to [tcs]; other formats have no
   TCS field. *)
let set_tcs tcs (op : Tepic.Op.t) =
  match op.body with
  | Load b -> { op with body = Load { b with tcs } }
  | Store b -> { op with body = Store { b with tcs } }
  | _ -> op

(* [op ()] with TCS drawn from the whole 2-bit field: [op] itself draws
   only 0-1. *)
let op_any_tcs () =
  let* o = op () and* tcs = int_range 0 3 in
  return (set_tcs tcs o)

(* A non-branch op (for MOP interiors). *)
let straight_op () =
  let* o = op () in
  if Tepic.Op.is_branch o then
    let* imm = int_range 0 1023 and* dest = reg in
    return (Tepic.Op.ldi ~imm ~dest ())
  else return o

(* A random well-formed program: every block has 1-4 MOPs of 1-6 straight
   ops; the last MOP optionally ends with a branch to a valid block. *)
let program ?(max_blocks = 12) () =
  let* n = int_range 1 max_blocks in
  let mop_gen =
    let* k = int_range 1 Tepic.Mop.issue_width in
    let* ops = list_repeat k (straight_op ()) in
    (* Enforce the memory-unit constraint by demoting excess memory ops. *)
    let _, ops =
      List.fold_left
        (fun (mems, acc) o ->
          if Tepic.Op.is_memory o then
            if mems >= Tepic.Mop.mem_units then
              (mems, Tepic.Op.ldi ~imm:0 ~dest:0 () :: acc)
            else (mems + 1, o :: acc)
          else (mems, o :: acc))
        (0, []) ops
    in
    return (Tepic.Mop.make (List.rev ops))
  in
  let block_gen id =
    let* nmops = int_range 1 4 in
    let* mops = list_repeat nmops mop_gen in
    let* with_branch = bool in
    let* mops =
      if with_branch then
        let* opcode = oneofl Tepic.Opcode.[ BR; BRCT; BRCF; BRLC ] in
        let* target = int_range 0 (n - 1) in
        let* p = pred in
        let br = Tepic.Op.branch ~pred:p ~opcode ~target () in
        match List.rev mops with
        | last :: earlier ->
            if Tepic.Mop.size last < Tepic.Mop.issue_width then
              return (List.rev (Tepic.Mop.make (Tepic.Mop.ops last @ [ br ]) :: earlier))
            else return (mops @ [ Tepic.Mop.make [ br ] ])
        | [] -> return [ Tepic.Mop.make [ br ] ]
      else return mops
    in
    return { Tepic.Program.id; mops }
  in
  let rec build i acc =
    if i >= n then return (List.rev acc)
    else
      let* b = block_gen i in
      build (i + 1) (b :: acc)
  in
  let* blocks = build 0 [] in
  return (Tepic.Program.make ~name:"random" blocks)

(* [program ()] with every load's and store's TCS drawn from 0-3. *)
let program_any_tcs () =
  let* p = program () and* seed = int in
  let rng = Random.State.make [| seed |] in
  return (Tepic.Program.map_ops (fun o -> set_tcs (Random.State.int rng 4) o) p)
