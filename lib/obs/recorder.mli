(** In-memory event recorder: a sink that appends every event to a
    growable buffer, plus the folder deriving the standard metrics
    registry from a recorded stream. *)

type t

val create : unit -> t

(** The sink to install ([?obs:(Recorder.sink r)]). *)
val sink : t -> Sink.t

val length : t -> int
val iter : (Event.t -> unit) -> t -> unit

(** Recorded events, oldest first. *)
val events : t -> Event.t array

(** Stable one-line-per-event serialization (trailing newline per line);
    byte-compared by the determinism tests. *)
val to_lines : t -> string

(** Fold the stream into a fresh metrics registry: one
    ["event.<name>"] counter per fetch event, ["bus.flips"]/["bus.beats"]
    totals, ["span_us.<stage>"] gauges, and the three standard histograms
    ["miss_penalty"], ["block_latency"] and ["recovery_latency"] —
    registered up front so the snapshot schema is stable even for runs
    that produced no misses or recoveries. *)
val summarize : t -> Metrics.t
