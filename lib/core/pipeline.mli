(** The compiler driver: workload package in, scheduled TEPIC program out.

    Chains register allocation (per-group windows), treegion scheduling
    with speculation, lowering and layout — the LEGO-compiler substitute's
    back end in one call. *)

type compiled = {
  program : Tepic.Program.t;
  alloc_cfg : Vliw_compiler.Cfg.t;
      (** the register-allocated CFG, pre-scheduling — reference semantics *)
  ilp : float;  (** achieved ops per issued cycle *)
  hoisted : int;  (** ops speculated above branches *)
  spill_slots : int;
  max_live : (Tepic.Reg.cls * int) list;
}

(** [compile ?obs ?profile_guided w] — full back end on a workload
    package, with treegion speculation on.  With [profile_guided:true]
    the driver first interprets the allocated program (bounded) to
    collect edge counts, then lets each speculation site pick its hottest
    successor — the profile feedback the paper's compiler gets from its
    emulator.

    [obs] receives a wall-clock span per stage (regalloc, schedule,
    layout) plus per-stage gauges: spill slots, ILP, hoisted ops, static
    op/MOP counts and the baseline image bit size. *)
val compile :
  ?obs:Cccs_obs.Sink.t ->
  ?profile_guided:bool ->
  Workloads.Gen.result ->
  compiled

(** [compile_profile p] — generate then compile. *)
val compile_profile : Workloads.Profile.t -> compiled

(** [lint c] — the compiler-side passes of the static verifier
    ({!Cccs_analysis}): IR/CFG dataflow lint on the allocated CFG and
    schedule checks on the packed program.  Encoding-side passes need the
    built schemes; see {!Analysis.lint_run}. *)
val lint : compiled -> Cccs_analysis.Diag.t list

(** [decompress ?jobs ?obs scheme] — {!Par_decode.decode} of [scheme],
    paired with its constant {!Par_decode.report}.  [jobs] is ignored: it
    and the report stay only while the benchmark passes and reads them. *)
val decompress :
  ?jobs:int ->
  ?obs:Cccs_obs.Sink.t ->
  Encoding.Scheme.t ->
  (string * Par_decode.report, Encoding.Scheme.decode_error) result
