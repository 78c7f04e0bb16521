(** Static WCET fetch-cycle bounds, checked against the simulator.

    Drives {!Cache_ai} over the recovered CFG of one scheme, charges
    {!Fetch.Config.penalty} per classification (always-hit blocks pay the
    hit row, everything else the full miss row, both at
    [predicted:false]), adds the ATB miss penalty unless the ATB lookup
    is provably a hit, accounts the MOP streaming cycles, and covers
    decompression-width effects with the certified worst-case block size
    (Certify's decode-model bound) at each block's actual offset.

    Loop bounds come from the workload trace (exact per-block visit
    counts) or from [default_loop_bound] raised to the loop nesting
    depth; a reachable cycle with neither is CCCS-E300.

    Soundness is enforced, not assumed: when a trace is supplied, the
    same trace is replayed through {!Fetch.Sim} and the observations are
    compared against every static claim — cycles above the bound are
    CCCS-E301, a miss on an always-hit block CCCS-E302, a hit on an
    always-miss block CCCS-E303.  A recovered CFG edge out of range is
    CCCS-E304; a trace edge the recovered CFG lacks is CCCS-E305
    (either invalidates the must-propagation).  An unclassified-heavy
    CFG warns CCCS-W306. *)

type wcet = {
  scheme : string;
  model : Fetch.Config.model;  (** {!Fetch.Config.of_scheme} [scheme] *)
  bound : int;  (** static fetch-cycle bound over the charged visits *)
  sim_cycles : int option;  (** simulator replay, when a trace was given *)
  ratio : float option;  (** bound / simulated; sound means >= 1.0 *)
  blocks : int;
  reachable : int;
  always_hit : int;  (** cache classification census over reachable *)
  always_miss : int;
  unclassified : int;
  atb_always_hit : int;
  charged_visits : int;  (** total block visits the bound charges *)
  trace_bounds : bool;
      (** visit counts from the trace; false = declared default bound *)
}

(** [analyze_scheme ~workload ~program sc] — diagnostics plus the bound
    record; [None] only when no finite bound exists (CCCS-E300).
    [strategy] short-circuits {!Abstract_decoder.strategy_of_scheme} for
    callers that already resolved it (the fuzz engine). *)
val analyze_scheme :
  workload:string ->
  program:Tepic.Program.t ->
  ?tailored:Encoding.Tailored.spec ->
  ?strategy:(Abstract_decoder.strategy, string) result ->
  ?trace:Emulator.Trace.t ->
  ?default_loop_bound:int ->
  Encoding.Scheme.t ->
  Diag.t list * wcet option

val analyze :
  workload:string ->
  program:Tepic.Program.t ->
  ?tailored:Encoding.Tailored.spec ->
  ?trace:Emulator.Trace.t ->
  ?default_loop_bound:int ->
  Encoding.Scheme.t list ->
  (Diag.t list * wcet option) list

(** The loop bound the lint pass assumes per nesting level when it runs
    without a trace. *)
val default_structural_bound : int

(** The "timing" verifier pass: every scheme of the target, structural
    loop bounds, diagnostics only. *)
val pass : (module Pass.S)
