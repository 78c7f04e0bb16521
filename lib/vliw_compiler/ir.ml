type vreg = {
  vcls : Tepic.Reg.cls;
  vid : int;
}

let vgpr vid = { vcls = Tepic.Reg.Gpr; vid }
let vfpr vid = { vcls = Tepic.Reg.Fpr; vid }
let vpr vid = { vcls = Tepic.Reg.Pr; vid }

let cls_rank : Tepic.Reg.cls -> int = function Gpr -> 0 | Fpr -> 1 | Pr -> 2

let compare_vreg a b =
  if a.vcls = b.vcls then Int.compare a.vid b.vid
  else Int.compare (cls_rank a.vcls) (cls_rank b.vcls)

let equal_vreg a b = a.vid = b.vid && a.vcls = b.vcls

let pp_vreg ppf v =
  Format.fprintf ppf "%s%d" (Tepic.Reg.cls_to_string v.vcls) v.vid

type t =
  | Alu of { opcode : Tepic.Opcode.t; dst : vreg; src1 : vreg; src2 : vreg }
  | Ldi of { dst : vreg; imm : int }
  | Cmpp of { opcode : Tepic.Opcode.t; dst : vreg; src1 : vreg; src2 : vreg }
  | Fpu of { opcode : Tepic.Opcode.t; dst : vreg; src1 : vreg; src2 : vreg }
  | Load of { opcode : Tepic.Opcode.t; dst : vreg; addr : vreg; lat : int }
  | Store of { opcode : Tepic.Opcode.t; addr : vreg; data : vreg }

type guarded = {
  inst : t;
  pred : vreg option;
  spec : bool;
}

let unguarded inst = { inst; pred = None; spec = false }
let guarded ~pred inst = { inst; pred = Some pred; spec = false }
let speculative g = { g with spec = true }

let defs = function
  | Alu { dst; _ } | Ldi { dst; _ } | Cmpp { dst; _ } | Fpu { dst; _ }
  | Load { dst; _ } ->
      Some dst
  | Store _ -> None

let uses = function
  | Alu { src1; src2; _ } | Cmpp { src1; src2; _ } -> [ src1; src2 ]
  (* Register-file conversions are unary: src2 is an encoding placeholder,
     not a data dependence. *)
  | Fpu { opcode = Tepic.Opcode.ITOF | Tepic.Opcode.FTOI; src1; _ } -> [ src1 ]
  | Fpu { src1; src2; _ } -> [ src1; src2 ]
  | Ldi _ -> []
  | Load { addr; _ } -> [ addr ]
  | Store { addr; data; _ } -> [ addr; data ]

let uses_guarded g =
  match g.pred with Some p -> p :: uses g.inst | None -> uses g.inst

let is_memory = function Load _ | Store _ -> true | _ -> false

let latency = function
  | Alu { opcode = Tepic.Opcode.MUL; _ } -> 3
  | Alu { opcode = Tepic.Opcode.DIV | Tepic.Opcode.REM; _ } -> 8
  | Alu _ | Ldi _ | Cmpp _ -> 1
  | Fpu { opcode = Tepic.Opcode.FDIV | Tepic.Opcode.FSQRT; _ } -> 8
  | Fpu _ -> 3
  | Load { lat; _ } -> lat
  | Store _ -> 1

let map_vregs f g =
  let inst =
    match g.inst with
    | Alu b -> Alu { b with dst = f b.dst; src1 = f b.src1; src2 = f b.src2 }
    | Ldi b -> Ldi { b with dst = f b.dst }
    | Cmpp b -> Cmpp { b with dst = f b.dst; src1 = f b.src1; src2 = f b.src2 }
    | Fpu b -> Fpu { b with dst = f b.dst; src1 = f b.src1; src2 = f b.src2 }
    | Load b -> Load { b with dst = f b.dst; addr = f b.addr }
    | Store b -> Store { b with addr = f b.addr; data = f b.data }
  in
  { inst; pred = Option.map f g.pred; spec = g.spec }

let pp ppf g =
  let open Format in
  if g.spec then fprintf ppf "<s> ";
  (match g.pred with
  | Some p -> fprintf ppf "(%a) " pp_vreg p
  | None -> ());
  match g.inst with
  | Alu { opcode; dst; src1; src2 } | Fpu { opcode; dst; src1; src2 } ->
      fprintf ppf "%s %a, %a, %a" (Tepic.Opcode.mnemonic opcode) pp_vreg dst
        pp_vreg src1 pp_vreg src2
  | Cmpp { opcode; dst; src1; src2 } ->
      fprintf ppf "%s %a, %a, %a" (Tepic.Opcode.mnemonic opcode) pp_vreg dst
        pp_vreg src1 pp_vreg src2
  | Ldi { dst; imm } -> fprintf ppf "ldi %a, #%d" pp_vreg dst imm
  | Load { opcode; dst; addr; lat } ->
      fprintf ppf "%s %a, [%a] (lat %d)" (Tepic.Opcode.mnemonic opcode) pp_vreg
        dst pp_vreg addr lat
  | Store { opcode; addr; data } ->
      fprintf ppf "%s [%a], %a" (Tepic.Opcode.mnemonic opcode) pp_vreg addr
        pp_vreg data
