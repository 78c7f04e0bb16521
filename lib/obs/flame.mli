(** Self-time attribution over the recorded span stream.

    Rebuilds parent/child nesting from span interval containment (a
    region's span is emitted after its children's, with clock readings
    strictly inside the parent), charges each frame its exclusive time,
    and exports collapsed-stack flamegraph lines.

    Invariant: the self times of a tree sum to the duration of its root,
    so summing every exported value reproduces total instrumented wall
    time. *)

type node = {
  stage : Event.stage;
  label : string;
  start_us : float;
  dur_us : float;
  self_us : float;  (** duration minus direct children's durations *)
  children : node list;  (** chronological *)
}

(** ["<stage>:<label>"] — the frame name of {!self_times} and
    {!collapsed}. *)
val frame : node -> string

(** Root spans (chronological) reconstructed from a recorded stream;
    non-span events are ignored. *)
val of_events : Event.t array -> node list

(** Sum of root durations. *)
val total_us : node list -> float

(** Per-frame exclusive totals, largest first. *)
val self_times : node list -> (string * float) list

(** Collapsed-stack lines (["frame;frame <self-us>"], integer
    microseconds, zero-valued frames dropped) — feed to flamegraph.pl,
    speedscope or inferno. *)
val collapsed : node list -> string

(** [write ~path events] — {!collapsed} of [events]' spans to [path], or,
    when [path] ends in [".json"], the events as one
    {!Export.chrome_trace} track (each span named by its label, with its
    stage as [cat]). *)
val write : path:string -> Event.t array -> unit
