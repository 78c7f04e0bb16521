(** Statistical regression detection between two sets of benchmark rows
    (the JSON objects bench and the {!Ledger} record).

    Conservative by construction: rows carrying ["samples"] arrays in
    their metric's unit on both sides (the metric lies within the range
    the samples span) get a deterministic percentile-bootstrap
    confidence interval and only regress when the whole interval clears
    zero and the point estimate clears [rel_threshold]; bare point
    estimates, and samples in another unit, need the wider
    [point_threshold].  Identical data always yields [Unchanged], for
    any seed. *)

type direction = Lower_better | Higher_better

(** Known metric fields in preference order: ["ns_per_run"],
    ["mb_per_s"], ["cases_per_s"], ["visits_per_s"], ["seconds"]. *)
val metrics : (string * direction) list

type verdict = Improved | Regressed | Unchanged

val verdict_name : verdict -> string

type config = {
  rel_threshold : float;
      (** minimum relative change for CI-backed verdicts (default 0.10) *)
  point_threshold : float;
      (** minimum relative change for point-only verdicts (default 0.25) *)
  resamples : int;  (** bootstrap resamples (default 1000) *)
  confidence : float;  (** two-sided CI level (default 0.95) *)
  seed : int;  (** RNG seed; per-row streams also mix the row name *)
}

val default : config

type row = {
  name : string;
  metric : string;
  base : float;
  cur : float;
  slowdown : float;
      (** relative change, sign-normalized so positive is worse *)
  ci : (float * float) option;  (** bootstrap CI over [slowdown] *)
  verdict : verdict;
}

(** Compare two row sets, keyed by each row's ["name"] field; rows
    present on only one side are skipped. *)
val rows :
  ?config:config -> base:Json.t list -> cur:Json.t list -> unit -> row list

type summary = { improved : int; regressed : int; unchanged : int }

val summarize : row list -> summary
val any_regressed : row list -> bool
val row_to_json : row -> Json.t

(** Scalar deltas between the ["counters"]/["gauges"] sections of two
    [cccs-stats] snapshots ([cccs stats --baseline]).  Only changed (or
    new, reported with [sbase = 0]) fields are returned. *)
type scalar_delta = { sname : string; sbase : float; scur : float }

val snapshot_deltas : base:Json.t -> cur:Json.t -> scalar_delta list
