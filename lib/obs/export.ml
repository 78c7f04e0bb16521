(* Exporters for the two machine-readable formats the tooling consumes:

   - [json_of_snapshot]: a metrics snapshot as one JSON object
     (`cccs stats --json`);
   - [chrome_trace]: event streams as Chrome trace-event JSON, loadable in
     ui.perfetto.dev or chrome://tracing (one named track per stream, spans
     as complete "X" events, fetch events as instant "i" events on a cycle
     timeline where 1 modeled cycle = 1 us).  It writes every --perfetto
     file and every --flame FILE.json. *)

let hist_json h =
  let s = Histogram.summarize h in
  Json.Obj
    [
      ("count", Json.int s.Histogram.s_count);
      ("sum", Json.int s.Histogram.s_sum);
      ("min", Json.int s.Histogram.s_min);
      ("max", Json.int s.Histogram.s_max);
      ("mean", Json.Num s.Histogram.s_mean);
      ("p50", Json.Num s.Histogram.s_p50);
      ("p90", Json.Num s.Histogram.s_p90);
      ("p99", Json.Num s.Histogram.s_p99);
      ( "buckets",
        Json.Arr
          (List.map
             (fun (lo, hi, n) ->
               Json.Arr [ Json.int lo; Json.int hi; Json.int n ])
             (Histogram.nonzero_buckets h)) );
    ]

(* One object: {"counters":{...},"gauges":{...},"histograms":{...}}, with
   [extra] fields (schema tag, workload name, ...) prepended. *)
let json_of_snapshot ?(extra = []) snap =
  let counters, gauges, hists =
    List.fold_left
      (fun (cs, gs, hs) (name, it) ->
        match it with
        | Metrics.Snap_counter v -> ((name, Json.int v) :: cs, gs, hs)
        | Metrics.Snap_gauge v -> (cs, (name, Json.Num v) :: gs, hs)
        | Metrics.Snap_hist h -> (cs, gs, (name, hist_json h) :: hs))
      ([], [], []) snap
  in
  Json.Obj
    (extra
    @ [
        ("counters", Json.Obj (List.rev counters));
        ("gauges", Json.Obj (List.rev gauges));
        ("histograms", Json.Obj (List.rev hists));
      ])

(* ------------------------------------------------------------------ *)
(* Chrome trace-event / Perfetto JSON. *)

let span_event ~pid (stage, label, start_us, dur_us) =
  Json.Obj
    [
      ("name", Json.Str label);
      ("cat", Json.Str (Event.stage_name stage));
      ("ph", Json.Str "X");
      ("ts", Json.Num start_us);
      ("dur", Json.Num (Float.max dur_us 0.1));
      ("pid", Json.int pid);
      ("tid", Json.int 1);
    ]

let fetch_event ~pid ~cycle ~visit ~block ev =
  let args =
    ("visit", Json.int visit) :: ("block", Json.int block)
    :: List.map (fun (k, v) -> (k, Json.int v)) (Event.fetch_args ev)
  in
  let args =
    match Event.fetch_surface ev with
    | Some s -> ("surface", Json.Str s) :: args
    | None -> args
  in
  match ev with
  | Event.Deliver { penalty; mops; _ } ->
      (* Delivery renders as a duration slice covering the block's
         initiation penalty plus MOP streaming cycles. *)
      Json.Obj
        [
          ("name", Json.Str (Printf.sprintf "block_%d" block));
          ("cat", Json.Str "deliver");
          ("ph", Json.Str "X");
          ("ts", Json.int cycle);
          ("dur", Json.int (max 1 (penalty + mops - 1)));
          ("pid", Json.int pid);
          ("tid", Json.int 2);
          ("args", Json.Obj args);
        ]
  | _ ->
      Json.Obj
        [
          ("name", Json.Str (Event.fetch_name ev));
          ("cat", Json.Str "fetch");
          ("ph", Json.Str "i");
          ("ts", Json.int cycle);
          ("s", Json.Str "t");
          ("pid", Json.int pid);
          ("tid", Json.int 3);
          ("args", Json.Obj args);
        ]

(* [tracks] is a list of (track-name, events); each track becomes one
   process in the trace with spans on tid 1, deliveries on tid 2 and
   instant events on tid 3. *)
let chrome_trace tracks =
  let evs = ref [] in
  List.iteri
    (fun i (name, events) ->
      let pid = i + 1 in
      evs :=
        Json.Obj
          [
            ("name", Json.Str "process_name");
            ("ph", Json.Str "M");
            ("pid", Json.int pid);
            ("args", Json.Obj [ ("name", Json.Str name) ]);
          ]
        :: !evs;
      Array.iter
        (fun e ->
          match e with
          | Event.Fetch { cycle; visit; block; ev } ->
              evs := fetch_event ~pid ~cycle ~visit ~block ev :: !evs
          | Event.Span { stage; label; start_us; dur_us } ->
              evs := span_event ~pid (stage, label, start_us, dur_us) :: !evs
          | Event.Gauge _ -> ())
        events)
    tracks;
  Json.Obj
    [
      ("traceEvents", Json.Arr (List.rev !evs));
      ("displayTimeUnit", Json.Str "ns");
    ]

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)
