(** TEPIC operations.

    An operation is the RISC-like unit the scheduler packs into VLIW
    MultiOps.  Its in-memory form mirrors the encoding formats of
    {!Format_spec}: a common header (tail bit, speculative bit, predicate)
    plus a format-specific body.  {!fields} exposes the generic
    (name, width, value) view that every encoder in the compression pipeline
    operates on. *)

type body =
  | Alu of {
      opcode : Opcode.t;
      src1 : int;
      src2 : int;
      bhwx : int;
      dest : int;
      l1 : bool;
    }
  | Cmpp of {
      opcode : Opcode.t;
      src1 : int;
      src2 : int;
      bhwx : int;
      d1 : int;
      dest : int;  (** destination predicate register *)
      l1 : bool;
    }
  | Ldi of { imm : int; dest : int; l1 : bool }  (** 20-bit literal *)
  | Fpu of {
      opcode : Opcode.t;
      src1 : int;
      src2 : int;
      sd : bool;  (** single/double *)
      tss : int;
      dest : int;
      l1 : bool;
    }
  | Load of {
      opcode : Opcode.t;
      src1 : int;  (** address register *)
      bhwx : int;
      scs : int;
      tcs : int;
      lat : int;  (** compiler-exposed latency *)
      dest : int;
    }
  | Store of {
      opcode : Opcode.t;
      src1 : int;  (** address register *)
      src2 : int;  (** data register *)
      bhwx : int;
      tcs : int;
      l1 : bool;
    }
  | Branch of {
      opcode : Opcode.t;
      src1 : int;
      counter : int;
      target : int;  (** block id in the original address space (16 bits) *)
    }

type t = {
  tail : bool;  (** set on the last op of a MultiOp (zero-NOP encoding) *)
  spec : bool;
  pred : int;  (** guarding predicate register; 0 = always execute *)
  body : body;
}

(** {1 Constructors}

    All take registers as plain indices of the class implied by the format
    (see {!regs}); fields default to the neutral value. *)

val alu :
  ?spec:bool -> ?pred:int -> ?bhwx:int -> ?l1:bool ->
  opcode:Opcode.t -> src1:int -> src2:int -> dest:int -> unit -> t

val cmpp :
  ?spec:bool -> ?pred:int -> ?bhwx:int -> ?d1:int -> ?l1:bool ->
  opcode:Opcode.t -> src1:int -> src2:int -> dest:int -> unit -> t

val ldi : ?spec:bool -> ?pred:int -> ?l1:bool -> imm:int -> dest:int -> unit -> t

val fpu :
  ?spec:bool -> ?pred:int -> ?sd:bool -> ?tss:int -> ?l1:bool ->
  opcode:Opcode.t -> src1:int -> src2:int -> dest:int -> unit -> t

val load :
  ?spec:bool -> ?pred:int -> ?bhwx:int -> ?scs:int -> ?tcs:int -> ?lat:int ->
  opcode:Opcode.t -> src1:int -> dest:int -> unit -> t

val store :
  ?spec:bool -> ?pred:int -> ?bhwx:int -> ?tcs:int ->
  opcode:Opcode.t -> src1:int -> src2:int -> unit -> t

val branch :
  ?spec:bool -> ?pred:int -> ?src1:int -> ?counter:int ->
  opcode:Opcode.t -> target:int -> unit -> t

(** {1 Accessors} *)

val opcode : t -> Opcode.t
val kind : t -> Opcode.kind
val is_memory : t -> bool
val is_branch : t -> bool
val is_conditional_branch : t -> bool

(** [branch_target op] is the target block id for branch ops with a static
    target ([BR], [BRCT], [BRCF], [BRL], [BRLC]); [None] otherwise. *)
val branch_target : t -> int option

val with_tail : bool -> t -> t
val with_target : int -> t -> t

(** {1 Generic field view} *)

(** [fields op] lists (field, value) pairs in the encoding order of the
    op's format.  Reserved fields appear with value 0.  The list always
    matches [Format_spec.layout (kind op)] positionally. *)
val fields : t -> (Format_spec.field * int) list

(** [field_value op name] is the value of field [name]; raises [Not_found]
    if the format has no such field. *)
val field_value : t -> string -> int

(** [of_fields kind lookup] rebuilds an op from a field-value lookup
    function.  Inverse of {!fields} for valid inputs. *)
val of_fields : Opcode.kind -> (string -> int) -> t

(** {1 Register view} *)

(** [regs op] lists every register operand with its class, definition
    last — sources first, then the destination if any.  The guarding
    predicate register is included as a [Pr] use when nonzero. *)
val regs : t -> Reg.t list

val equal : t -> t -> bool

(** [equal_list a b] — same length and pairwise {!equal}: a decoded
    block against its reference ops. *)
val equal_list : t list -> t list -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string
