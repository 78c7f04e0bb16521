(** The whole-pipeline static verifier, wired to the workload drivers.

    Re-exports {!Cccs_analysis} (diagnostics, pass signature, the
    registered checkers) and adds the glue that assembles a {!Cccs_analysis.Pass.target}
    from a memoized workload run: allocated CFG, packed program, every
    built encoding scheme and the tailored spec. *)

module Diag = Cccs_analysis.Diag
module Pass = Cccs_analysis.Pass
module Dataflow_check = Cccs_analysis.Dataflow_check
module Schedule_check = Cccs_analysis.Schedule_check
module Encoding_check = Cccs_analysis.Encoding_check
module Decoder_check = Cccs_analysis.Decoder_check
module Abstract_decoder = Cccs_analysis.Abstract_decoder
module Cfg_recover = Cccs_analysis.Cfg_recover
module Image_check = Cccs_analysis.Image_check
module Decode_dfa = Cccs_analysis.Decode_dfa
module Certify = Cccs_analysis.Certify
module Cache_ai = Cccs_analysis.Cache_ai
module Timing_check = Cccs_analysis.Timing_check

val passes : (module Pass.S) list

(** [(name, doc)] of every registered pass. *)
val pass_names : (string * string) list

val run_all : Pass.target -> Diag.t list
val run_pass : string -> Pass.target -> Diag.t list option

(** [target_of_run r] — a full target for one loaded workload: CFG,
    program, all encoding schemes (memoized via {!Experiments.schemes_of})
    and the tailored spec. *)
val target_of_run : Workload_run.run -> Pass.target

(** [lint_run r] — every pass over one loaded workload. *)
val lint_run : Workload_run.run -> Diag.t list

(** [wcet_run r] — static WCET fetch-timing analysis of every scheme of
    one loaded workload, with loop bounds from the executed trace and the
    simulator-replay soundness checks (CCCS-E30x) enabled. *)
val wcet_run :
  Workload_run.run -> (Diag.t list * Timing_check.wcet option) list
