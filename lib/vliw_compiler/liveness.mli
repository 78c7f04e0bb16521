(** Classic backward liveness dataflow over a {!Cfg}. *)

module VSet : Set.S with type elt = Ir.vreg

type t = {
  live_in : VSet.t array;
  live_out : VSet.t array;
}

(** [analyze cfg] iterates to a fixed point.  Terminator uses and defs are
    accounted for (a [Loop] counter is both used and redefined; a [Call]
    defines its link register). *)
val analyze : Cfg.t -> t
