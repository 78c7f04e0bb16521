(* A sink is the single entry point instrumented code talks to.  The
   convention at every instrumentation site is

     match obs with
     | Some s -> Sink.emit s (Event.Fetch { ... })
     | None -> ()

   i.e. the event value is only constructed under the [Some] branch, so an
   uninstrumented run ([?obs] left out) allocates nothing and pays one
   pointer comparison per site. *)

type t = { emit : Event.t -> unit }

let make emit = { emit }
let emit t e = t.emit e

(* Time [f] on the monotonic [Clock] and emit a span around it; spans are
   excluded from the determinism contract (see Event). *)
let timed ?obs ~stage ~label f =
  match obs with
  | None -> f ()
  | Some s ->
      let t0 = Clock.now () in
      let r = f () in
      let t1 = Clock.now () in
      emit s
        (Event.Span
           { stage; label; start_us = t0 *. 1e6; dur_us = (t1 -. t0) *. 1e6 });
      r

let gauge ?obs name value =
  match obs with
  | None -> ()
  | Some s -> emit s (Event.Gauge { name; value })
