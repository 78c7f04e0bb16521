(** Reproduction drivers, one row function per table/figure of the
    paper's evaluation.

    Every row function takes one loaded program and returns its row; the
    bench harness and the CLI render them.  All results are memoized per
    domain through {!Workload_run}, {!schemes_of}, {!fig13_for} and one
    ATT per (program, scheme, line size).

    {!sweep} maps row functions over the eight SPEC programs on a
    {!Parallel} pool.  The row functions are deterministic, so parallel
    output is identical to the sequential run; workloads are loaded
    inside the worker, so each domain compiles and memoizes its own
    share.  A command that prints several tables computes all of a
    program's rows in one task of one sweep: a worker domain starts with
    empty memos, so a second sweep would load, encode and replay every
    program again. *)

(** All encoding schemes built for one workload, memoized per domain. *)
type schemes = {
  base : Encoding.Scheme.t;
  byte : Encoding.Scheme.t;
  streams : (string * Encoding.Scheme.t) list;  (** all six configurations *)
  full : Encoding.Scheme.t;
  tailored : Encoding.Scheme.t;
  tailored_spec : Encoding.Tailored.spec;
  dict : Encoding.Scheme.t;
      (** Liao-style sequence dictionary (related work, not in the paper's
          figures) *)
}

val schemes_of : Workload_run.run -> schemes

(** [all_schemes s] — the paper's figure set in display order: base,
    byte, the stream configurations, full, tailored ([dict] is kept
    apart, as in the figures). *)
val all_schemes : schemes -> (string * Encoding.Scheme.t) list

(** [every_scheme s] — {!all_schemes} followed by [dict]: every scheme
    the CLI, the verifier and the static analyses cover. *)
val every_scheme : schemes -> (string * Encoding.Scheme.t) list

(** [fetch_models r] — the four Figure 13 fetch models of one workload,
    named ["ideal"], ["base"], ["compressed"] and ["tailored"] in that
    order, each a run of the workload's trace that reports to [obs] when
    given one.  [base], [full] and [tailored] run on the model and cache
    of {!Fetch.Config.of_scheme}. *)
val fetch_models :
  Workload_run.run ->
  (string * (?obs:Cccs_obs.Sink.t -> unit -> Fetch.Sim.result)) list

(** {1 Verification} *)

type verdict = {
  memory_ok : bool;
      (** the scheduled program and the sequential reference interpreter
          leave identical memory *)
  trace_ok : bool;  (** ... and visit identical block sequences *)
  decode_back : (string * bool) list;
      (** per scheme of {!every_scheme}, in order: its ROM decodes back to
          the program, bit accounting included ({!Encoding.Scheme.verify}) *)
}

(** [verify r] — the differential and decode-back checks of one workload,
    over the memoized schemes: the first three of the eight checks of
    [cccs verify]. *)
val verify : Workload_run.run -> verdict

(** [sweep ?jobs f] — [f] over the eight SPEC programs in suite order,
    each program loaded inside its task, on a {!Parallel} pool of [jobs]
    domains (default [Parallel.default_jobs ()], i.e. [CCCS_JOBS], else
    sequential). *)
val sweep : ?jobs:int -> (Workload_run.run -> 'a) -> 'a list

(** {1 Figure 5 — compression ratio, code segment only} *)

type fig5_row = {
  bench : string;
  ratios : (string * float) list;  (** scheme name -> ratio vs baseline *)
}

val fig5_for : Workload_run.run -> fig5_row

(** {1 Figure 7 — total code size with the ATT, and ATB behaviour} *)

type fig7_row = {
  bench : string;
  base_bits : int;
  schemes_total : (string * int * float) list;
      (** scheme, code+table+ATT bits, ATT overhead ratio *)
  atb_miss_rate : float;
      (** ATB misses per block visit of Figure 13's compressed replay *)
}

val fig7_for : Workload_run.run -> fig7_row

(** {1 Figure 10 — Huffman decoder complexity} *)

type fig10_row = {
  bench : string;
  decoders : (string * Encoding.Scheme.decoder_info) list;
}

val fig10_for : Workload_run.run -> fig10_row

(** {1 Figure 13 — instructions delivered per cycle} *)

type fig13_row = {
  bench : string;
  ideal : Fetch.Sim.result;
  base : Fetch.Sim.result;
  compressed : Fetch.Sim.result;
  tailored : Fetch.Sim.result;
}

(** [fig13_for r] — one row, memoized per domain: the replays Figure 7,
    the ablation, the predictor study and the superblock study share. *)
val fig13_for : Workload_run.run -> fig13_row

(** {1 Figure 14 — memory bus bit flips} *)

type fig14_row = {
  bench : string;
  flips : (string * int) list;  (** model -> total flips *)
}

(** [fig14_of row] — the bus flips of Figure 13's base, compressed and
    tailored replays. *)
val fig14_of : fig13_row -> fig14_row

(** {1 Ablation — decompress at hit time vs at miss time}

    DESIGN.md's headline design decision: the paper caches compressed code
    and decompresses on the hit path; CodePack-style systems decompress on
    the miss path and cache plain ops.  This experiment isolates the
    capacity effect by running both on identical traces. *)

type ablation_row = {
  bench : string;
  hit_time : Fetch.Sim.result;
      (** the paper's organization: Figure 13's compressed replay *)
  miss_time : Fetch.Sim.result;  (** CodePack-style alternative *)
}

val ablation_for : Workload_run.run -> ablation_row

(** {1 Extension — branch predictor study (the paper's future work)}

    Reruns the compressed fetch model (the one most sensitive to
    misprediction) with the 2-bit ATB predictor replaced by gshare. *)

type predictor_row = {
  bench : string;
  two_bit : Fetch.Sim.result;  (** Figure 13's compressed replay *)
  gshare : Fetch.Sim.result;  (** 12 history bits *)
}

val predictors_for : Workload_run.run -> predictor_row

(** {1 Extension — superblock fetch units (the paper's future work)}

    §3.1 leaves "complex blocks as fetch units" to future work; this runs
    the Base and Compressed models with maximal single-entry fall-through
    chains as the atomic fetch unit. *)

type superblock_row = {
  bench : string;
  mean_unit_blocks : float;
  bb_base : Fetch.Sim.result;
  sb_base : Fetch.Sim.result;
  bb_compressed : Fetch.Sim.result;
  sb_compressed : Fetch.Sim.result;
}

val superblocks_for : Workload_run.run -> superblock_row

(** [clear_cache ()] — reset the calling domain's memoized results
    (tests, cold-cache benchmarking). *)
val clear_cache : unit -> unit
