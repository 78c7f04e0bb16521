(** Execution traces at block granularity.

    The fetch simulators replay the visited-block sequence: blocks are the
    atomic fetch unit (paper §3.1), so a block-id sequence plus the static
    program is exactly the information an instruction-address trace
    carries. *)

type t

val create : unit -> t
val add : t -> int -> unit
val length : t -> int

(** [get t i] — i-th visited block. *)
val get : t -> int -> int

(** [record_ops t ~ops ~mops] accumulates executed op/MOP counts. *)
val record_ops : t -> ops:int -> mops:int -> unit

val total_ops : t -> int
val total_mops : t -> int

(** [visits t ~num_blocks] — per-block visit counts. *)
val visits : t -> num_blocks:int -> int array

val iter : (int -> unit) -> t -> unit

(** [to_array t] — the full visited sequence (copied). *)
val to_array : t -> int array
