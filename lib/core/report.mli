(** Text rendering of the experiment tables, shared by the bench harness
    and the CLI.  Each function prints the paper-figure reproduction in the
    row/series structure the paper reports. *)

val fig5 : Format.formatter -> Experiments.fig5_row list -> unit
val fig7 : Format.formatter -> Experiments.fig7_row list -> unit
val fig10 : Format.formatter -> Experiments.fig10_row list -> unit
val fig13 : Format.formatter -> Experiments.fig13_row list -> unit
val fig14 : Format.formatter -> Experiments.fig14_row list -> unit

(** [faults ppf t] — per-scheme detection coverage, silent-corruption and
    recovery statistics of one fault campaign, plus the protection
    overhead on the compression ratio. *)
val faults : Format.formatter -> Faults.t -> unit

val ablation : Format.formatter -> Experiments.ablation_row list -> unit
val predictors : Format.formatter -> Experiments.predictor_row list -> unit
val superblocks : Format.formatter -> Experiments.superblock_row list -> unit

(** [wcet ppf rows] — per-workload static-WCET table: bound, simulated
    cycles, bound/simulated ratio and the must/may classification census
    per scheme (the `cccs wcet` human report). *)
val wcet :
  Format.formatter ->
  (string * Cccs_analysis.Timing_check.wcet list) list ->
  unit

(** [all ppf ()] — run and print every experiment plus the ablation, in
    one {!Experiments.sweep}. *)
val all : Format.formatter -> unit -> unit
