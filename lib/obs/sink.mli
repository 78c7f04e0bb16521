(** The consumer interface instrumented code emits into.

    Instrumentation sites must construct event values only after matching
    the sink option, so an uninstrumented run ([?obs] omitted) pays one
    pointer comparison per site and allocates nothing:

    {[
      match obs with
      | Some s -> Sink.emit s (Event.Fetch { ... })
      | None -> ()
    ]} *)

type t

val make : (Event.t -> unit) -> t
val emit : t -> Event.t -> unit

(** [timed ?obs ~stage ~label f] — run [f] and, when a sink is installed,
    emit a wall-clock {!Event.Span} around it, timed on {!Clock}. *)
val timed :
  ?obs:t -> stage:Event.stage -> label:string -> (unit -> 'a) -> 'a

(** [gauge ?obs name v] — emit a {!Event.Gauge} when a sink is installed. *)
val gauge : ?obs:t -> string -> float -> unit
