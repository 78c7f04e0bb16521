(* Execution exactly as it stood before the emulator moved onto
   pre-decoded arrays: [Machine.exec_mop] matching each [Op.t], staging
   its writes as a list of variants and committing them at the MOP end,
   and [run] walking each block's MOP list through it.  Kept verbatim
   (the machine, control, stop-reason and result types are re-exported
   from [Emulator]) as the reference oracle the emulator suite compares
   [Emulator.Exec.run] and [Emulator.Machine.exec_mop] against. *)

module Semantics = Emulator.Semantics
module Trace = Emulator.Trace

module Machine = struct
  type t = Emulator.Machine.t = {
    gpr : int array;
    fpr : float array;
    pr : bool array;
    mem : int array;
    fmem : float array;
  }

  let create = Emulator.Machine.create

  type control = Emulator.Machine.control =
    | Next
    | Goto of int
    | Call_to of { target : int }
    | Return_to of int
    | Halt

  type write =
    | Wgpr of int * int
    | Wfpr of int * float
    | Wpr of int * bool
    | Wmem of int * int
    | Wfmem of int * float

  let exec_mop t ~block_id ops =
    let size = Array.length t.mem in
    let writes = ref [] in
    let control = ref Next in
    let push w = writes := w :: !writes in
    let exec_op (op : Tepic.Op.t) =
      if t.pr.(op.Tepic.Op.pred) then
        match op.Tepic.Op.body with
        | Tepic.Op.Alu { opcode; src1; src2; dest; _ } ->
            push (Wgpr (dest, Semantics.alu opcode t.gpr.(src1) t.gpr.(src2)))
        | Tepic.Op.Cmpp { opcode; src1; src2; dest; _ } ->
            push (Wpr (dest, Semantics.cmpp opcode t.gpr.(src1) t.gpr.(src2)))
        | Tepic.Op.Ldi { imm; dest; _ } -> push (Wgpr (dest, imm))
        | Tepic.Op.Fpu { opcode = Tepic.Opcode.ITOF; src1; dest; _ } ->
            push (Wfpr (dest, float_of_int t.gpr.(src1)))
        | Tepic.Op.Fpu { opcode = Tepic.Opcode.FTOI; src1; dest; _ } ->
            push (Wgpr (dest, Semantics.ftoi t.fpr.(src1)))
        | Tepic.Op.Fpu { opcode; src1; src2; dest; _ } ->
            push (Wfpr (dest, Semantics.fpu opcode t.fpr.(src1) t.fpr.(src2)))
        | Tepic.Op.Load { src1; bhwx; tcs; dest; _ } ->
            let idx = Semantics.mem_index ~size t.gpr.(src1) in
            if tcs = 1 then push (Wfpr (dest, t.fmem.(idx)))
            else push (Wgpr (dest, Semantics.narrow ~bhwx t.mem.(idx)))
        | Tepic.Op.Store { src1; src2; tcs; _ } ->
            let idx = Semantics.mem_index ~size t.gpr.(src1) in
            if tcs = 1 then push (Wfmem (idx, t.fpr.(src2)))
            else push (Wmem (idx, t.gpr.(src2)))
        | Tepic.Op.Branch { opcode; src1; counter; target } -> (
            match opcode with
            | Tepic.Opcode.BR -> control := Goto target
            | Tepic.Opcode.BRCT ->
                (* Guard already known true here: BRCT is taken. *)
                control := Goto target
            | Tepic.Opcode.BRCF ->
                (* BRCF branches only when its guard is false (handled in the
                   disabled-op arm below). *)
                ()
            | Tepic.Opcode.BRLC ->
                if t.gpr.(counter) > 0 then begin
                  push (Wgpr (counter, t.gpr.(counter) - 1));
                  control := Goto target
                end
            | Tepic.Opcode.BRL ->
                push (Wgpr (src1, block_id + 1));
                control := Call_to { target }
            | Tepic.Opcode.RET ->
                let link = t.gpr.(src1) in
                control := if link < 0 then Halt else Return_to link
            | _ -> assert false)
      else
        (* BRCF branches when the guard predicate is false. *)
        match op.Tepic.Op.body with
        | Tepic.Op.Branch { opcode = Tepic.Opcode.BRCF; target; _ } ->
            control := Goto target
        | _ -> ()
    in
    List.iter exec_op ops;
    List.iter
      (fun w ->
        match w with
        | Wgpr (i, v) -> t.gpr.(i) <- Semantics.wrap32 v
        | Wfpr (i, v) -> t.fpr.(i) <- v
        | Wpr (i, v) -> if i <> 0 then t.pr.(i) <- v
        | Wmem (i, v) -> t.mem.(i) <- Semantics.wrap32 v
        | Wfmem (i, v) -> t.fmem.(i) <- v)
      (List.rev !writes);
    !control
end

type stop_reason = Emulator.Exec.stop_reason =
  | Fell_through
  | Halted
  | Budget_exhausted

type result = Emulator.Exec.result = {
  trace : Trace.t;
  machine : Machine.t;
  stop : stop_reason;
}

let run ?(max_blocks = 2_000_000) ?(mem_size = 65536) ?obs program =
  Cccs_obs.Sink.timed ?obs ~stage:Cccs_obs.Event.Simulate
    ~label:("execute:" ^ program.Tepic.Program.name)
  @@ fun () ->
  let machine = Machine.create ~mem_size () in
  let trace = Trace.create () in
  let n = Tepic.Program.num_blocks program in
  let stop = ref None in
  let pc = ref program.Tepic.Program.entry in
  let visits = ref 0 in
  while !stop = None do
    if !visits >= max_blocks then stop := Some Budget_exhausted
    else begin
      incr visits;
      let b = Tepic.Program.block program !pc in
      Trace.add trace !pc;
      Trace.record_ops trace
        ~ops:(Tepic.Program.block_num_ops b)
        ~mops:(Tepic.Program.block_num_mops b);
      let control = ref Machine.Next in
      List.iter
        (fun mop ->
          let c =
            Machine.exec_mop machine ~block_id:!pc (Tepic.Mop.ops mop)
          in
          match c with Machine.Next -> () | c -> control := c)
        b.Tepic.Program.mops;
      match !control with
      | Machine.Next ->
          if !pc + 1 >= n then stop := Some Fell_through else incr pc
      | Machine.Goto t | Machine.Call_to { target = t } -> pc := t
      | Machine.Return_to t ->
          if t >= n then stop := Some Fell_through else pc := t
      | Machine.Halt -> stop := Some Halted
    end
  done;
  let stop = match !stop with Some s -> s | None -> assert false in
  Cccs_obs.Sink.gauge ?obs "exec.block_visits"
    (float_of_int (Trace.length trace));
  Cccs_obs.Sink.gauge ?obs "exec.dyn_ops" (float_of_int (Trace.total_ops trace));
  Cccs_obs.Sink.gauge ?obs "exec.dyn_mops"
    (float_of_int (Trace.total_mops trace));
  { trace; machine; stop }
