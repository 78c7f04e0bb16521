(** Operation types and opcodes of the baseline TEPIC ISA (paper Table 2).

    Every operation carries a 2-bit operation type ([OPT]) and a 5-bit
    opcode within that type.  The (type, opcode) pair selects one of the
    seven encoding formats of {!Format}. *)

type optype = Int | Float | Mem | Branch

(** Encoding format family selected by an opcode (one per row of the paper's
    Table 2). *)
type kind =
  | K_alu  (** integer ALU *)
  | K_cmpp  (** integer compare-to-predicate *)
  | K_ldi  (** integer load-immediate (20-bit literal) *)
  | K_fpu  (** floating point *)
  | K_load  (** memory load *)
  | K_store  (** memory store *)
  | K_branch  (** control transfer *)

type t =
  (* Integer ALU *)
  | ADD | SUB | MUL | DIV | REM
  | AND | OR | XOR | NAND | NOR
  | SHL | SHR | SRA
  | MOV | ABS | MIN | MAX
  (* Integer load immediate *)
  | LDI
  (* Compare-to-predicate *)
  | CMPP_EQ | CMPP_NE | CMPP_LT | CMPP_LE | CMPP_GT | CMPP_GE
  | CMPP_LTU | CMPP_GEU
  (* Floating point *)
  | FADD | FSUB | FMUL | FDIV | FABS | FNEG | FSQRT
  | FMIN | FMAX | FCMP | ITOF | FTOI | FMOV
  (* Memory *)
  | LB | LH | LW | LX
  | SB | SH | SW | SX
  (* Branch *)
  | BR  (** unconditional *)
  | BRCT  (** branch on predicate true *)
  | BRCF  (** branch on predicate false *)
  | BRL  (** branch-and-link (call) *)
  | RET
  | BRLC  (** loop-counter branch *)

(** One row per opcode: (opcode, optype, 5-bit code, format kind,
    mnemonic) — the single source of truth every lookup below is built
    from, once. *)
val table : (t * optype * int * kind * string) list

val all : t list

val optype : t -> optype
val kind : t -> kind

(** [code op] is the 5-bit opcode value within [optype op]. *)
val code : t -> int

(** [of_code opt code] recovers the opcode; [None] for unassigned points of
    the opcode space. *)
val of_code : optype -> int -> t option

(** [optype_code opt] is the 2-bit [OPT] field value. *)
val optype_code : optype -> int

val optype_of_code : int -> optype

val is_memory : t -> bool
val is_branch : t -> bool

(** [is_conditional op] holds for control transfers whose outcome depends on
    a predicate or counter ([BRCT], [BRCF], [BRLC]). *)
val is_conditional : t -> bool

val mnemonic : t -> string
val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
