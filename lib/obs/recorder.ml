(* In-memory event recorder: a sink that appends every event to a growable
   buffer, plus a folder that derives the standard metrics registry
   (per-event counters, miss-penalty / block-latency / recovery-latency
   histograms) from a recorded stream. *)

type t = { mutable data : Event.t array; mutable len : int }

let create () = { data = [||]; len = 0 }

let record t e =
  if t.len = Array.length t.data then begin
    let cap = max 256 (2 * Array.length t.data) in
    let data = Array.make cap e in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end;
  t.data.(t.len) <- e;
  t.len <- t.len + 1

let sink t = Sink.make (record t)
let length t = t.len
let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let events t = Array.sub t.data 0 t.len

(* Stable one-line-per-event serialization; byte-compared by the
   determinism test. *)
let to_lines t =
  let b = Buffer.create (64 * t.len) in
  iter
    (fun e ->
      Buffer.add_string b (Event.to_line e);
      Buffer.add_char b '\n')
    t;
  Buffer.contents b

(* Fold a recorded stream into a metrics registry.  The three standard
   histograms are registered up front so that snapshots keep a stable
   schema even when a run produced no misses or recoveries. *)
let summarize t =
  let m = Metrics.create () in
  let miss_penalty = Metrics.histogram m "miss_penalty" in
  let block_latency = Metrics.histogram m "block_latency" in
  let recovery_latency = Metrics.histogram m "recovery_latency" in
  let cur_visit = ref (-1) and saw_miss = ref false in
  iter
    (fun e ->
      match e with
      | Event.Fetch { visit; ev; _ } ->
          if visit <> !cur_visit then begin
            cur_visit := visit;
            saw_miss := false
          end;
          Metrics.incr m ("event." ^ Event.fetch_name ev);
          (match Event.fetch_surface ev with
          | Some s ->
              Metrics.incr m
                (Printf.sprintf "event.%s.%s" (Event.fetch_name ev) s)
          | None -> ());
          (match ev with
          | Event.L1_miss _ -> saw_miss := true
          | Event.Fault_recover { cycles } ->
              Histogram.observe recovery_latency cycles
          | Event.Deliver { penalty; mops; _ } ->
              Histogram.observe block_latency (penalty + mops - 1);
              if !saw_miss then Histogram.observe miss_penalty penalty
          | Event.Bus_beat { flips; beats } ->
              Metrics.incr ~by:flips m "bus.flips";
              Metrics.incr ~by:beats m "bus.beats"
          | _ -> ())
      | Event.Span { stage; dur_us; _ } ->
          (* Accumulate total wall time per stage. *)
          let g = Metrics.gauge m ("span_us." ^ Event.stage_name stage) in
          g := !g +. dur_us
      | Event.Gauge { name; value } -> Metrics.set_gauge m name value)
    t;
  m
