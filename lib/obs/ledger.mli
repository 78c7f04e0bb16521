(** Append-only cross-run telemetry ledger (JSONL, schema
    ["cccs-ledger/1"]).

    Each measuring entry point ([bench], [cccs verify], [cccs faults],
    [cccs fuzz]) appends one line per invocation: run kind, git revision,
    timestamp, machine shape ([cores], [jobs]), the scheme set and the
    full result rows.
    {!Compare} and [cccs perfdiff] read consecutive entries back to turn
    the overwritten BENCH_*.json snapshots into an auditable time
    series.

    Stdlib-only: the caller supplies wall-clock timestamps and core
    counts; {!git_rev} reads [.git/HEAD] directly instead of shelling
    out. *)

val schema : string
(** ["cccs-ledger/1"] *)

type entry = {
  kind : string;
      (** ["bench"], ["bench_perf"], ["bench_fuzz"], ["verify_all"]
          (written by [cccs verify]), ["faults"], ["fuzz"], ... *)
  git_rev : string;
  timestamp : float;  (** unix seconds, caller-supplied *)
  cores : int;
  jobs : int;
  schemes : string list;
  rows : Json.t list;
      (** kind-specific result rows; by convention each is an [Obj]
          carrying a ["name"] field, which {!Compare} keys on *)
  meta : (string * Json.t) list;  (** free-form extras (seed, mode, ...) *)
}

val make :
  kind:string ->
  ?git_rev:string ->
  timestamp:float ->
  ?cores:int ->
  ?jobs:int ->
  ?schemes:string list ->
  ?meta:(string * Json.t) list ->
  Json.t list ->
  entry

val to_json : entry -> Json.t
val of_json : Json.t -> (entry, string) result

(** Append one entry as a single compact JSON line (file created on
    first use). *)
val append : path:string -> entry -> unit

(** Load every parseable entry, oldest first.  Corrupted or foreign
    lines are skipped and returned as warning strings (["line N: why"]);
    a missing file is simply [([], [])]. *)
val load : path:string -> entry list * string list

(** Most recent entry, optionally restricted to one [kind]. *)
val last : ?kind:string -> entry list -> entry option

(** Most recent two matching entries as [(previous, current)]. *)
val last_two : ?kind:string -> entry list -> entry option * entry option

(** [$CCCS_LEDGER], defaulting to ["ledger.jsonl"]. *)
val default_path : unit -> string

(** Current git revision by following [.git/HEAD] (worktrees and packed
    refs included); ["unknown"] when [dir] is not inside a repository. *)
val git_rev : ?dir:string -> unit -> string

(** [record ~kind ~timestamp ~cores rows] — append one entry, stamped with
    {!git_rev}, to {!default_path}, unless [$CCCS_LEDGER] is ["off"] or
    empty (recording is opt-out; tests use this to stay side-effect
    free).  [Error msg] when the ledger cannot be written; never raises
    [Sys_error]. *)
val record :
  kind:string ->
  timestamp:float ->
  cores:int ->
  ?jobs:int ->
  ?schemes:string list ->
  ?meta:(string * Json.t) list ->
  Json.t list ->
  (unit, string) result
