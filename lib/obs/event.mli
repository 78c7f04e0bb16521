(** Typed telemetry events: cycle-stamped fetch-pipeline events and
    wall-clock pipeline-stage spans, sharing one stream.

    The serialized line format ({!to_line}) is a contract: fetch and gauge
    lines must be deterministic (two identical simulations emit
    byte-identical streams), span lines carry wall-clock time and are
    exempt. *)

(** The compiler/simulator/benchmark stages spans can cover.  [Decode] is
    the decompression direction — the whole-image decode's span lands
    there. *)
type stage =
  | Lower
  | Schedule
  | Regalloc
  | Encode
  | Decode
  | Decoder_gen
  | Simulate
  | Bench

val stage_name : stage -> string

(** One constructor per observable micro-event of the fetch pipeline. *)
type fetch =
  | L1_hit
  | L1_miss of { lines : int }  (** lines that must be (re)fetched *)
  | L0_hit
  | L0_fill of { ops : int }
  | Atb_miss of { penalty : int }
  | Mispredict
  | Decode_stall of { cycles : int }
      (** initiation penalty beyond 1 cycle *)
  | Bus_beat of { beats : int; flips : int }
  | Deliver of { penalty : int; ops : int; mops : int }
  | Fault_inject of { bit : int }
  | Fault_detect of { surface : string }
  | Fault_recover of { cycles : int }
  | Fault_silent of { surface : string }
  | Fault_benign of { surface : string }
  | Machine_check

val fetch_name : fetch -> string

(** Payload fields as (key, value) pairs, used by every exporter. *)
val fetch_args : fetch -> (string * int) list

(** The fault surface ("rom", "table", "cache") of a fault verdict. *)
val fetch_surface : fetch -> string option

type t =
  | Fetch of { cycle : int; visit : int; block : int; ev : fetch }
  | Span of { stage : stage; label : string; start_us : float; dur_us : float }
  | Gauge of { name : string; value : float }

(** Stable single-line serialization (no trailing newline). *)
val to_line : t -> string
