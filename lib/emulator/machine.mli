(** Architectural state and MOP-level execution of TEPIC code.

    Execution honours VLIW semantics: every op in a MOP reads the state as
    it was at the start of the cycle, and all writes (including memory)
    commit together at the end, in op order, so the last write to a
    location wins.  Predicated ops whose guard is false commit nothing.
    p0 is hard-wired true. *)

type t = {
  gpr : int array;
  fpr : float array;
  pr : bool array;
  mem : int array;
  fmem : float array;
      (** floating-point view of data memory, addressed by memory ops whose
          TCS field selects the FP register file *)
}

(** [create ~mem_size ()] — fresh machine, all state zero (p0 true). *)
val create : mem_size:int -> unit -> t

(** Control decision produced by the branch (if any) of a MOP. *)
type control =
  | Next  (** no branch, or branch not taken / guard false *)
  | Goto of int  (** block id *)
  | Call_to of { target : int }  (** link register committed by [exec_mop] *)
  | Return_to of int
  | Halt  (** RET with a negative link value *)

(** {1 Pre-decoded execution}

    {!decode} turns a run of MOPs into flat arrays once (op class,
    opcode, guard, destination, sources, immediate and MOP boundaries);
    {!step} then executes one MOP without matching an [Op.t] or
    allocating for an integer op, staging its writes in arrays sized by
    the widest MOP (at least {!Tepic.Mop.issue_width}). *)

(** Decoded MOPs, with the scratch state of the MOP in flight: one [code]
    serves one execution at a time. *)
type code

(** [decode mops] decodes [mops], MOP [m] being the [m]-th list.  Raises
    [Invalid_argument] on a branch-format op whose opcode is no branch. *)
val decode : Tepic.Op.t list list -> code

(** Outcome of a MOP's branch: the next block (or link) is {!target}. *)
type branch =
  | No_branch  (** no branch, or branch not taken / guard false *)
  | Jump  (** BR, BRCT, BRCF or BRLC taken *)
  | Call  (** BRL; its link write is committed *)
  | Return  (** RET: {!target} is the link; negative halts *)

(** [step t code ~block_id m] executes MOP [m] of [code] on [t], as
    {!exec_mop} does. *)
val step : t -> code -> block_id:int -> int -> branch

(** [target code] — block id (or return link) of the last branch {!step}
    took. *)
val target : code -> int

(** [exec_mop t ~block_id ops] executes one MOP: {!step} on [decode [ops]].
    [block_id] is the id of the executing block; the fall-through/return
    point recorded by BRL is [block_id + 1].  Returns the control decision
    of the MOP's branch (evaluated on pre-cycle state), [Next] when there
    is none. *)
val exec_mop : t -> block_id:int -> Tepic.Op.t list -> control

(** [checksum t] — order-sensitive hash of all architectural state, for
    differential testing. *)
val checksum : t -> int

(** [mem_checksum t] — hash of memory contents only. *)
val mem_checksum : t -> int
