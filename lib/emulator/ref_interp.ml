open Vliw_compiler

type result = {
  trace : Trace.t;
  mem : int array;
  fmem : float array;
  stop : Exec.stop_reason;
}

module Vtbl = Hashtbl.Make (struct
  type t = Ir.vreg

  let equal = Ir.equal_vreg
  let hash = Hashtbl.hash
end)

type state = {
  ints : int Vtbl.t;
  floats : float Vtbl.t;
  preds : bool Vtbl.t;
  mem : int array;
  fmem : float array;
}

let geti st v = Option.value ~default:0 (Vtbl.find_opt st.ints v)
let getf st v = Option.value ~default:0. (Vtbl.find_opt st.floats v)

let getp st (v : Ir.vreg) =
  if v.Ir.vid = 0 then true
  else Option.value ~default:false (Vtbl.find_opt st.preds v)

let seti st v x = Vtbl.replace st.ints v (Semantics.wrap32 x)
let setf st v x = Vtbl.replace st.floats v x

let setp st (v : Ir.vreg) x =
  if v.Ir.vid <> 0 then Vtbl.replace st.preds v x

let exec_inst st (g : Ir.guarded) =
  let enabled = match g.Ir.pred with Some p -> getp st p | None -> true in
  if enabled then
    let size = Array.length st.mem in
    match g.Ir.inst with
    | Ir.Alu { opcode; dst; src1; src2 } ->
        seti st dst (Semantics.alu opcode (geti st src1) (geti st src2))
    | Ir.Ldi { dst; imm } -> seti st dst imm
    | Ir.Cmpp { opcode; dst; src1; src2 } ->
        setp st dst (Semantics.cmpp opcode (geti st src1) (geti st src2))
    | Ir.Fpu { opcode = Tepic.Opcode.ITOF; dst; src1; _ } ->
        setf st dst (float_of_int (geti st src1))
    | Ir.Fpu { opcode = Tepic.Opcode.FTOI; dst; src1; _ } ->
        seti st dst (Semantics.ftoi (getf st src1))
    | Ir.Fpu { opcode; dst; src1; src2 } ->
        setf st dst (Semantics.fpu opcode (getf st src1) (getf st src2))
    | Ir.Load { dst; addr; _ } ->
        let idx = Semantics.mem_index ~size (geti st addr) in
        if dst.Ir.vcls = Tepic.Reg.Fpr then setf st dst st.fmem.(idx)
        else seti st dst st.mem.(idx)
    | Ir.Store { addr; data; _ } ->
        let idx = Semantics.mem_index ~size (geti st addr) in
        if data.Ir.vcls = Tepic.Reg.Fpr then st.fmem.(idx) <- getf st data
        else st.mem.(idx) <- Semantics.wrap32 (geti st data)

let run ?(max_blocks = 2_000_000) ?(mem_size = 65536) cfg =
  let st =
    {
      ints = Vtbl.create 257;
      floats = Vtbl.create 257;
      preds = Vtbl.create 257;
      mem = Array.make mem_size 0;
      fmem = Array.make mem_size 0.;
    }
  in
  let trace = Trace.create () in
  let n = Cfg.num_blocks cfg in
  let stop = ref None in
  let pc = ref cfg.Cfg.entry in
  let visits = ref 0 in
  while !stop = None do
    if !visits >= max_blocks then stop := Some Exec.Budget_exhausted
    else begin
      incr visits;
      let b = Cfg.block cfg !pc in
      Trace.add trace !pc;
      Trace.record_ops trace ~ops:(List.length b.Cfg.insts) ~mops:0;
      List.iter (exec_inst st) b.Cfg.insts;
      let fall () =
        if !pc + 1 >= n then stop := Some Exec.Fell_through else incr pc
      in
      match b.Cfg.term with
      | Cfg.Fallthrough -> fall ()
      | Cfg.Jump t -> pc := t
      | Cfg.Cond { on_true; pred; target } ->
          let p = getp st pred in
          if p = on_true then pc := target else fall ()
      | Cfg.Loop { counter; target } ->
          let c = geti st counter in
          if c > 0 then begin
            seti st counter (c - 1);
            pc := target
          end
          else fall ()
      | Cfg.Call { target; link } ->
          seti st link (!pc + 1);
          pc := target
      | Cfg.Return { link } ->
          let l = geti st link in
          if l < 0 then stop := Some Exec.Halted
          else if l >= n then stop := Some Exec.Fell_through
          else pc := l
    end
  done;
  let stop = match !stop with Some s -> s | None -> assert false in
  { trace; mem = st.mem; fmem = st.fmem; stop }

let mem_checksum (r : result) =
  let h = ref 0x811C9DC5 in
  let mix v = h := (!h lxor v) * 0x01000193 land max_int in
  Array.iter mix r.mem;
  Array.iter (fun v -> mix (Hashtbl.hash v)) r.fmem;
  !h
