(* Common shape of every static-verifier pass.

   A pass consumes a [target] — one workload's pipeline artifacts, each
   optional so a pass can run on whatever subset a caller has — and returns
   diagnostics.  New checkers (bus-energy lint, ATB reachability, ...) slot
   in by satisfying {!S} and joining the registry in {!Cccs_analysis}. *)

type target = {
  workload : string;
  cfg : Vliw_compiler.Cfg.t option;
      (* the register-allocated CFG, pre-scheduling *)
  program : Tepic.Program.t option;  (* the scheduled, packed program *)
  schemes : Encoding.Scheme.t list;  (* every built encoding scheme *)
  tailored : Encoding.Tailored.spec option;
}

let target ?cfg ?program ?(schemes = []) ?tailored workload =
  { workload; cfg; program; schemes; tailored }

module type S = sig
  val name : string
  val doc : string
  val run : target -> Diag.t list
end
