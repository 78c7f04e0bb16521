(* Telemetry tests: determinism of the event stream, zero effect of
   instrumentation on simulation results, histogram percentile bounds
   against a brute-force quantile, and parse-back well-formedness of the
   JSON exporters. *)

module Obs = Cccs_obs

let check = Alcotest.(check int)

let fir_prog =
  lazy
    (Cccs.Pipeline.compile (Workloads.Kernels.fir ~taps:8 ~samples:8))
      .Cccs.Pipeline.program

let fir_trace =
  lazy
    (Emulator.Exec.run ~max_blocks:100_000 (Lazy.force fir_prog))
      .Emulator.Exec.trace

(* One instrumented compressed-model run over the fir kernel. *)
let run_recorded () =
  let prog = Lazy.force fir_prog in
  let trace = Lazy.force fir_trace in
  let scheme = Encoding.Full_huffman.build prog in
  let cfg = Fetch.Config.default in
  let att = Encoding.Att.build scheme ~line_bits:cfg.Fetch.Config.line_bits prog in
  let rc = Obs.Recorder.create () in
  let res =
    Fetch.Sim.run ~obs:(Obs.Recorder.sink rc) ~model:Fetch.Config.Compressed
      ~cfg ~scheme ~att trace
  in
  (res, rc)

(* {1 Determinism and non-interference} *)

let test_stream_deterministic () =
  let _, rc1 = run_recorded () in
  let _, rc2 = run_recorded () in
  Alcotest.(check bool) "some events recorded" true (Obs.Recorder.length rc1 > 0);
  (* The whole point of cycle-stamping: two identical simulations produce
     byte-identical streams. *)
  Alcotest.(check string) "byte-identical streams"
    (Obs.Recorder.to_lines rc1) (Obs.Recorder.to_lines rc2)

let test_obs_does_not_change_results () =
  let prog = Lazy.force fir_prog in
  let trace = Lazy.force fir_trace in
  let scheme = Encoding.Full_huffman.build prog in
  let cfg = Fetch.Config.default in
  let att = Encoding.Att.build scheme ~line_bits:cfg.Fetch.Config.line_bits prog in
  let bare =
    Fetch.Sim.run ~model:Fetch.Config.Compressed ~cfg ~scheme ~att trace
  in
  let observed, _ = run_recorded () in
  Alcotest.(check bool) "identical result record" true (bare = observed)

let test_events_match_result_counters () =
  let res, rc = run_recorded () in
  let count p =
    let n = ref 0 in
    Obs.Recorder.iter
      (fun e ->
        match e with
        | Obs.Event.Fetch { ev; _ } -> if p ev then incr n
        | _ -> ())
      rc;
    !n
  in
  check "one deliver per visit" res.Fetch.Sim.block_visits
    (count (function Obs.Event.Deliver _ -> true | _ -> false));
  check "l1 misses" res.Fetch.Sim.l1_misses
    (count (function Obs.Event.L1_miss _ -> true | _ -> false));
  check "l0 hits" res.Fetch.Sim.l0_hits
    (count (function Obs.Event.L0_hit -> true | _ -> false));
  check "mispredicts" res.Fetch.Sim.mispredicts
    (count (function Obs.Event.Mispredict -> true | _ -> false))

(* {1 Histograms} *)

(* Deterministic pseudo-random values, no stdlib Random state leakage. *)
let pseudo_values n =
  let x = ref 88172645463325252 in
  List.init n (fun _ ->
      x := !x lxor (!x lsl 13);
      x := !x lxor (!x lsr 7);
      x := !x lxor (!x lsl 17);
      abs !x mod 10_000)

let brute_quantile values q =
  let a = Array.of_list values in
  Array.sort compare a;
  let n = Array.length a in
  let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
  a.(min (n - 1) (rank - 1))

let test_percentile_bounds () =
  let values = pseudo_values 500 in
  let h = Obs.Histogram.create () in
  List.iter (Obs.Histogram.observe h) values;
  check "count" 500 (Obs.Histogram.count h);
  check "sum" (List.fold_left ( + ) 0 values) (Obs.Histogram.sum h);
  List.iter
    (fun q ->
      let exact = brute_quantile values q in
      let est = Obs.Histogram.percentile h q in
      let b = Obs.Histogram.bucket_of exact in
      let lo = float_of_int (Obs.Histogram.bucket_lo b) in
      let hi = float_of_int (Obs.Histogram.bucket_hi b) in
      if est < lo || est > hi then
        Alcotest.failf
          "p%.0f estimate %.1f outside bucket [%.0f,%.0f] of exact %d"
          (q *. 100.) est lo hi exact)
    [ 0.5; 0.9; 0.99 ]

let test_percentile_exact_small () =
  (* All mass in one bucket: every percentile must stay in it. *)
  let h = Obs.Histogram.create () in
  for _ = 1 to 10 do
    Obs.Histogram.observe h 7
  done;
  let s = Obs.Histogram.summarize h in
  check "min" 7 s.Obs.Histogram.s_min;
  check "max" 7 s.Obs.Histogram.s_max;
  List.iter
    (fun p ->
      Alcotest.(check bool) "within bucket of 7" true (p >= 4. && p <= 7.))
    [ s.Obs.Histogram.s_p50; s.Obs.Histogram.s_p90; s.Obs.Histogram.s_p99 ]

let test_metrics_registry () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr m "a";
  Obs.Metrics.incr ~by:2 m "a";
  Obs.Metrics.set_gauge m "g" 1.5;
  Obs.Metrics.observe m "h" 3;
  (match Obs.Metrics.snapshot m with
  | [ ("a", Obs.Metrics.Snap_counter 3); ("g", Obs.Metrics.Snap_gauge g);
      ("h", Obs.Metrics.Snap_hist h) ] ->
      Alcotest.(check (float 0.0)) "gauge" 1.5 g;
      check "hist count" 1 (Obs.Histogram.count h)
  | _ -> Alcotest.fail "snapshot shape/order");
  (* Re-using a name with a different kind is a programming error. *)
  Alcotest.check_raises "kind clash"
    (Invalid_argument "Metrics.gauge: \"a\" is not a gauge") (fun () ->
      ignore (Obs.Metrics.gauge m "a"))

let test_summarize_schema_stable () =
  (* Even an empty stream yields the standard histograms, so stats
     snapshots are schema-stable. *)
  let m = Obs.Recorder.summarize (Obs.Recorder.create ()) in
  let names = List.map fst (Obs.Metrics.snapshot m) in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " present") true (List.mem n names))
    [ "miss_penalty"; "block_latency"; "recovery_latency" ]

(* {1 Exporter parse-back} *)

let parse_ok what s =
  match Obs.Json.parse s with
  | Ok j -> j
  | Error e -> Alcotest.failf "%s: unparsable JSON: %s" what e

let test_chrome_trace_parses () =
  let _, rc = run_recorded () in
  let j =
    Obs.Export.chrome_trace [ ("compressed", Obs.Recorder.events rc) ]
  in
  let j = parse_ok "chrome_trace" (Obs.Json.to_string j) in
  let evs =
    match Obs.Json.member "traceEvents" j with
    | Some a -> (
        match Obs.Json.to_list a with
        | Some l -> l
        | None -> Alcotest.fail "traceEvents not an array")
    | None -> Alcotest.fail "no traceEvents"
  in
  Alcotest.(check bool) "nonempty" true (List.length evs > 1);
  List.iter
    (fun e ->
      List.iter
        (fun k ->
          if Obs.Json.member k e = None then
            Alcotest.failf "trace event missing %S" k)
        [ "ph"; "pid"; "name" ])
    evs

let test_snapshot_json_parses () =
  let _, rc = run_recorded () in
  let m = Obs.Recorder.summarize rc in
  let snap = Obs.Metrics.snapshot m in
  let j =
    Obs.Export.json_of_snapshot
      ~extra:[ ("schema", Obs.Json.Str "cccs-stats/1") ]
      snap
  in
  let j = parse_ok "snapshot" (Obs.Json.to_string j) in
  (match Obs.Json.member "schema" j with
  | Some (Obs.Json.Str "cccs-stats/1") -> ()
  | _ -> Alcotest.fail "schema tag");
  match Obs.Json.member "histograms" j with
  | Some (Obs.Json.Obj hs) ->
      Alcotest.(check bool) "miss_penalty exported" true
        (List.mem_assoc "miss_penalty" hs)
  | _ -> Alcotest.fail "no histograms object"

let test_json_roundtrip () =
  let j =
    Obs.Json.Obj
      [
        ("s", Obs.Json.Str "a\"b\\c\n\t\xe2\x82\xac");
        ("n", Obs.Json.Num (-12.5));
        ("i", Obs.Json.int 42);
        ("b", Obs.Json.Bool false);
        ("z", Obs.Json.Null);
        ("a", Obs.Json.Arr [ Obs.Json.int 1; Obs.Json.int 2 ]);
        ("o", Obs.Json.Obj []);
      ]
  in
  match Obs.Json.parse (Obs.Json.to_string j) with
  | Ok j' when j = j' -> ()
  | Ok _ -> Alcotest.fail "roundtrip changed the value"
  | Error e -> Alcotest.failf "roundtrip parse failed: %s" e

let suite =
  [
    Alcotest.test_case "stream deterministic" `Quick test_stream_deterministic;
    Alcotest.test_case "obs does not change results" `Quick
      test_obs_does_not_change_results;
    Alcotest.test_case "events match result counters" `Quick
      test_events_match_result_counters;
    Alcotest.test_case "percentile bounds" `Quick test_percentile_bounds;
    Alcotest.test_case "percentile exact small" `Quick
      test_percentile_exact_small;
    Alcotest.test_case "metrics registry" `Quick test_metrics_registry;
    Alcotest.test_case "summarize schema stable" `Quick
      test_summarize_schema_stable;
    Alcotest.test_case "chrome trace parses" `Quick test_chrome_trace_parses;
    Alcotest.test_case "snapshot json parses" `Quick test_snapshot_json_parses;
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
  ]
