(** Calibrated workload execution.

    SPEC-like profiles specify a {e dynamic} op budget
    ([Profile.dyn_ops_target]); the nested loop and call structure makes
    executed size hard to predict statically, so the driver probes each
    program with a 4-iteration hot loop, measures executed ops per
    iteration with the reference interpreter, and rescales the hot-loop
    trip count before the real run.  Kernels run as written.

    Results are memoized per domain (domain-local storage): every
    experiment in a domain reuses the same compiled program and trace, and
    parallel sweep workers ({!Parallel}) each build their own, so the memo
    table is never shared across domains. *)

type run = {
  name : string;
  kind : [ `Spec | `Kernel ];
  compiled : Pipeline.compiled;
  exec : Emulator.Exec.result;
}

(** [load ?obs entry] — generate (calibrated), compile, execute.
    Memoized: [obs] only sees stage spans and gauges on the first,
    uncached load of a workload. *)
val load : ?obs:Cccs_obs.Sink.t -> Workloads.Suite.entry -> run

(** [load_spec ()] — the paper's eight-benchmark evaluation set. *)
val load_spec : unit -> run list

(** [calibrate p] — the rescaled profile actually run (exposed for tests
    and the design-space example). *)
val calibrate : Workloads.Profile.t -> Workloads.Profile.t

(** [generate entry] — the program {!load} compiles: the calibrated
    profile's, or the kernel as written.  Not memoized. *)
val generate : Workloads.Suite.entry -> Workloads.Gen.result

(** [clear_cache ()] — drop the calling domain's memoized runs (tests,
    cold-cache benchmarking). *)
val clear_cache : unit -> unit
