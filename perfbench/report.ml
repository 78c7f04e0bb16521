(* Metric definitions and the result line.

   End-to-end metrics come from untraced rounds; per-layer metrics from the
   spans of traced rounds, divided by the number of traced rounds so each
   reads as one round's worth. *)

(* What a workload's rounds measured, for the end-to-end metrics. *)
type summary = {
  setup_s : float list;  (** per round *)
  wall_s : float list;  (** per round: the workload's headline phase *)
  cold_mb_s : float list;
      (** per round: uncompressed baseline-image MB through the headline
          phase per second *)
  decode_ms : float list;
      (** first-decode latency of every image, every round pooled; empty
          where the workload does not decode *)
  mb_s : float list;
      (** per round: steady-state MB/s; the warm pass where there is one *)
  jobs_used : int;  (** domains the timed phase runs on *)
}

let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

(* Throughputs rather than wall times: a seed changes the size of every
   generated program, and dividing by the programs' baseline image size
   takes most of that out of the run-to-run spread.  The baseline size is
   fixed by the program, not by any encoder under test. *)
let end_to_end s =
  [
    ("setup_s", "s", Common.median s.setup_s);
    ("cold_mb_s", "MB/s", Common.median s.cold_mb_s);
    ("mb_s", "MB/s", Common.median s.mb_s);
  ]

(* Every per-layer metric, with its unit.  Span-timed layers read their
   self time; a workload that bypasses a layer reports 0 for it. *)
let span_layers =
  [
    "core.calibrate_s";
    "workloads.generate_s";
    "vliw_compiler.compile_s";
    "emulator.exec_s";
    "encoding.build_s.base";
    "encoding.build_s.byte";
    "encoding.build_s.stream";
    "encoding.build_s.full";
    "encoding.build_s.tailored";
    "encoding.build_s.dict";
    "encoding.att_s";
    "fetch.sim_s.ideal";
    "fetch.sim_s.base";
    "fetch.sim_s.compressed";
    "fetch.sim_s.tailored";
    "par_decode.classify_s";
    "pipeline.decompress_s.cold";
    "pipeline.decompress_s.warm";
    "pipeline.decompress_s.seq";
    "encoding.decode_block_s";
    "tepic.encode_s";
  ]
  @ List.map
      (fun p -> "analysis." ^ p ^ "_s")
      (List.map fst Cccs.Analysis.pass_names)

let derived_layers =
  [
    ("emulator.block_visits", "count");
    ("fetch.visits_per_s", "1/s");
    ("encoding.decode_alloc_words_per_byte", "words/B");
    ("bits.read_floor_mb_s", "MB/s");
    ("pipeline.gather_s", "s");
    ("pipeline.decompress_cold_p50_ms", "ms");
    ("pipeline.decompress_cold_p90_ms", "ms");
    ("par_decode.jobs_used", "count");
    ("par_decode.chunks", "count");
    ("parallel.jobs_used", "count");
    ("parallel.busy_ratio", "ratio");
    ("analysis.dfa_pairs_reachable", "count");
    ("gc.minor_mwords", "Mwords");
    ("gc.major_collections", "count");
    ("process.peak_rss_mb", "MB");
    ("trace.untraced_wall_s", "s");
    ("trace.traced_wall_s", "s");
    ("trace.overhead_s", "s");
    ("trace.layer_self_s", "s");
    ("trace.harness_s", "s");
    ("trace.idle_s", "s");
    ("trace.coverage", "ratio");
    ("check.error_rate", "ratio");
  ]

let per_layer_units =
  List.map (fun n -> (n, "s")) span_layers @ derived_layers

(* Self-time accounting of the traced timed phases ("bench.measure"
   roots).  Over the [jobs] domains of the phase, wall time splits into
   layer self time, the benchmark's own item spans ("bench.*") and idle
   time.  With more than one domain, idle time is what the spans leave of
   the domains' wall time: pool start-up, work claiming and the calling
   domain waiting for the others.  With one domain nothing waits, so idle
   time is 0 and un-spanned work counts against coverage.  [coverage] is
   layer self time plus idle time, per domain, over the untraced wall time
   of the same phase.  [tolerance] is how far from 1 the benchmark accepts
   it; a traced run outside it fails a check.  Traced and untraced rounds
   are different rounds, and on a shared machine rounds of identical work
   drift by about 10 %, so the tolerance leaves room for that on top of the
   tracing overhead. *)
let tolerance = 0.25

type accounting = {
  traced_wall_s : float;
  layer_self_s : float;
  harness_s : float;
  idle_s : float;
  busy_ratio : float;
  coverage : float;
}

let is_bench name = String.length name >= 6 && String.sub name 0 6 = "bench."

let accounting spans ~traced_rounds ~jobs ~untraced_wall_s =
  let n = float_of_int (max 1 traced_rounds) in
  let roots = List.filter (fun s -> s.Span.name = "bench.measure") spans in
  let phase =
    roots @ List.concat_map (fun r -> Span.descendants spans r.Span.id) roots
  in
  let self = Span.self_times phase in
  let layer_self_s, harness_s =
    Hashtbl.fold
      (fun name v (l, h) ->
        if name = "bench.measure" then (l, h)
        else if is_bench name then (l, h +. v)
        else (l +. v, h))
      self (0., 0.)
  in
  let traced_wall_s = Common.sum (List.map Span.duration roots) /. n in
  let layer_self_s = layer_self_s /. n and harness_s = harness_s /. n in
  let domain_s = float_of_int jobs *. traced_wall_s in
  let idle_s =
    if jobs > 1 then Float.max 0. (domain_s -. layer_self_s -. harness_s)
    else 0.
  in
  let items =
    List.filter (fun s -> s.Span.name = "bench.item") phase
    |> List.map Span.duration |> Common.sum
  in
  {
    traced_wall_s;
    layer_self_s;
    harness_s;
    idle_s;
    busy_ratio = (if domain_s > 0. then items /. n /. domain_s else 0.);
    coverage =
      (if untraced_wall_s > 0. then
         (layer_self_s +. idle_s) /. float_of_int jobs /. untraced_wall_s
       else 0.);
  }

let result_line metrics =
  let attempted = Atomic.get Common.attempted
  and failed = Atomic.get Common.failed in
  Printf.sprintf
    {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    (failed = 0 && attempted > 0)
    attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} name (num v)
              unit)
          metrics))
