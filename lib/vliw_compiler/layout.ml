let pad_op =
  Tepic.Op.alu ~opcode:Tepic.Opcode.MOV ~src1:0 ~src2:0 ~dest:0 ()

(* The branch may share the block's last cycle only when that cycle does not
   define a register the terminator reads or writes (the branch reads its
   predicate/counter/link at issue; BRLC also decrements its counter). *)
let branch_fits last_cycle (sched_cycles : Ir.guarded list list)
    (term : Cfg.terminator) =
  let term_regs = Cfg.term_uses term @ Cfg.term_defs term in
  let last_ir =
    match List.rev sched_cycles with last :: _ -> last | [] -> []
  in
  List.length last_cycle < Tepic.Mop.issue_width
  && List.for_all
       (fun g ->
         match Ir.defs g.Ir.inst with
         | Some d -> not (List.exists (Ir.equal_vreg d) term_regs)
         | None -> true)
       last_ir

let build (sched : Schedule.t) =
  let cfg = sched.Schedule.cfg in
  let n = Cfg.num_blocks cfg in
  let blocks =
    List.init n (fun i ->
        let bb = Cfg.block cfg i in
        let ir_cycles = Schedule.block_cycles sched i in
        let cycles = List.map (List.map Lower.lower_inst) ir_cycles in
        let cycles =
          match Lower.lower_term bb.Cfg.term with
          | None -> cycles
          | Some br -> (
              match List.rev cycles with
              | [] -> [ [ br ] ]
              | last :: earlier ->
                  if branch_fits last ir_cycles bb.Cfg.term then
                    List.rev ((last @ [ br ]) :: earlier)
                  else List.rev ([ br ] :: last :: earlier))
        in
        let cycles = if cycles = [] then [ [ pad_op ] ] else cycles in
        { Tepic.Program.id = i; mops = List.map Tepic.Mop.make cycles })
  in
  Tepic.Program.make ~name:cfg.Cfg.name ~entry:cfg.Cfg.entry blocks
