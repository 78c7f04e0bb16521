(** RISC-like intermediate representation over virtual registers.

    This is the LEGO-compiler substitute's IR: one IR instruction lowers to
    exactly one TEPIC operation, but operands are virtual registers of a
    class ({!Tepic.Reg.cls}) so the register allocator can run after
    generation and before scheduling.  Control transfers live in the CFG
    terminators ({!Cfg}), not in instruction lists. *)

type vreg = {
  vcls : Tepic.Reg.cls;
  vid : int;
}

val vgpr : int -> vreg
val vfpr : int -> vreg
val vpr : int -> vreg

(** [compare_vreg a b] orders by class ([Gpr < Fpr < Pr]), then by [vid]:
    the order [Stdlib.compare] gives, without its C call. *)
val compare_vreg : vreg -> vreg -> int

val equal_vreg : vreg -> vreg -> bool
val pp_vreg : Format.formatter -> vreg -> unit

type t =
  | Alu of { opcode : Tepic.Opcode.t; dst : vreg; src1 : vreg; src2 : vreg }
  | Ldi of { dst : vreg; imm : int }
  | Cmpp of { opcode : Tepic.Opcode.t; dst : vreg; src1 : vreg; src2 : vreg }
  | Fpu of { opcode : Tepic.Opcode.t; dst : vreg; src1 : vreg; src2 : vreg }
  | Load of { opcode : Tepic.Opcode.t; dst : vreg; addr : vreg; lat : int }
  | Store of { opcode : Tepic.Opcode.t; addr : vreg; data : vreg }

(** A guarded instruction: [pred = Some p] restricts execution to cycles
    where predicate register [p] holds (if-converted code).  [spec] marks
    ops the treegion scheduler hoisted above a branch; it lowers to the
    S bit of the encoding. *)
type guarded = {
  inst : t;
  pred : vreg option;
  spec : bool;
}

val unguarded : t -> guarded
val guarded : pred:vreg -> t -> guarded

(** [speculative g] marks [g] as speculated. *)
val speculative : guarded -> guarded

(** [defs i] is the destination, if any. *)
val defs : t -> vreg option

(** [uses i] lists source registers (without the guard predicate). *)
val uses : t -> vreg list

(** [uses_guarded g] includes the guard predicate. *)
val uses_guarded : guarded -> vreg list

val is_memory : t -> bool

(** [latency i] is the compiler's scheduling latency for the op: cycles
    before a dependent op may issue. *)
val latency : t -> int

(** [map_vregs f g] rewrites every register (including the guard). *)
val map_vregs : (vreg -> vreg) -> guarded -> guarded

val pp : Format.formatter -> guarded -> unit
