(* The repository benchmark.

     bench.exe --workload <figures|rom-decode|verify> --seed <n>
               --seconds <s> --trace <0|1>

   Runs one workload in rounds until [seconds] have passed (at least three
   rounds).  Each round sets its inputs up from the seed, runs the timed
   phase and checks every output against a reference independent of the
   code under test.  With [--trace 0] the last line of stdout is the result
   with every end-to-end metric; with [--trace 1] rounds alternate untraced
   and traced, the spans are written to perfbench-out/, and the result
   carries every per-layer metric instead. *)

let expected_path = "perfbench/expected_verify.txt"
let out_dir = "perfbench-out"

let usage () =
  prerr_endline
    "usage: bench.exe --workload figures|rom-decode|verify --seed N --seconds \
     S --trace 0|1";
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
}

let parse_args () =
  let rec go acc = function
    | "--workload" :: w :: rest -> go { acc with workload = w } rest
    | "--seed" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n -> go { acc with seed = n } rest
        | None -> usage ())
    | "--seconds" :: s :: rest -> (
        match float_of_string_opt s with
        | Some s when s > 0. -> go { acc with seconds = s } rest
        | _ -> usage ())
    | "--trace" :: ("0" | "1" as t) :: rest -> go { acc with trace = t = "1" } rest
    | [] -> acc
    | _ -> usage ()
  in
  go
    { workload = ""; seed = Common.default_seed; seconds = 10.; trace = false }
    (List.tl (Array.to_list Sys.argv))

(* One round with its trace flag and GC deltas. *)
type 'r round = {
  traced : bool;
  r : 'r;
  minor_words : float;
  major_collections : int;
}

(* Untraced runs take at least three rounds, for medians.  Traced runs
   alternate untraced and traced rounds, starting untraced so one-off
   process costs never land on a traced round. *)
let drive ~args round =
  let min_rounds = 3 in
  Common.rounds ~seconds:args.seconds ~min_rounds (fun i ->
      let traced = args.trace && i mod 2 = 1 in
      Span.enabled := traced;
      let g0 = Gc.quick_stat () in
      let r = round i in
      let g1 = Gc.quick_stat () in
      Span.enabled := false;
      {
        traced;
        r;
        minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
        major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
      })

let untraced rounds = List.filter_map (fun x -> if x.traced then None else Some x.r) rounds
let traced rounds = List.filter_map (fun x -> if x.traced then Some x.r else None) rounds

let read_file path = In_channel.with_open_bin path In_channel.input_all

let git_rev () =
  Option.value ~default:"unknown" (Sys.getenv_opt "PERFBENCH_GIT_REV")

(* What a workload hands back to the reporting code. *)
type outcome = {
  summary : Report.summary;  (** over untraced rounds *)
  measure_s : float list;  (** untraced rounds: whole timed phase *)
  counters : (string * float) list;
  context : (string * string) list;  (** extra JSON fields of the context *)
  gc : float * float;  (** minor Mwords, major collections per round *)
  rounds : int;
  traced_rounds : int;
  self : string -> float;  (** span self time per traced round *)
}

let gc_of rounds =
  let u = List.filter (fun x -> not x.traced) rounds in
  let n = float_of_int (max 1 (List.length u)) in
  ( Common.sum (List.map (fun x -> x.minor_words /. 1e6) u) /. n,
    Common.sum (List.map (fun x -> float_of_int x.major_collections) u) /. n )

(* [self_per_round rounds name] — the self time of the spans named [name],
   per traced round. *)
let self_per_round rounds =
  let n = float_of_int (max 1 (List.length (traced rounds))) in
  let self = Span.self_times (Span.all ()) in
  fun name -> Option.value ~default:0. (Hashtbl.find_opt self name) /. n

let run_figures args =
  let rs = drive ~args (Figures.round ~seed:args.seed) in
  Figures.check_rounds (List.map (fun x -> x.r) rs);
  let self = self_per_round rs in
  let sim_s =
    Common.sum
      (List.map (fun m -> self ("fetch.sim_s." ^ m))
         [ "ideal"; "base"; "compressed"; "tailored" ])
  in
  let replayed = Figures.replayed (traced rs) in
  let summary = Figures.summary (untraced rs) in
  {
    summary;
    measure_s = summary.Report.wall_s;
    counters =
      [
        ("fetch.visits_per_s", if sim_s > 0. then replayed /. sim_s else 0.);
        ("parallel.jobs_used", float_of_int (Figures.jobs_used ()));
      ];
    context =
      [
        ( "parallel_calls",
          Printf.sprintf
            {|[{"call": "Parallel.map figures sweep", "jobs_requested": %d, "jobs_used": %d, "items": %d}]|}
            Common.jobs (Figures.jobs_used ())
            (List.length Workloads.Suite.all) );
      ];
    gc = gc_of rs;
    rounds = List.length rs;
    traced_rounds = List.length (traced rs);
    self;
  }

let run_rom_decode args =
  let rs = drive ~args (Rom_decode.round ~seed:args.seed) in
  let self = self_per_round rs in
  let all = List.map (fun x -> x.r) rs in
  let summary = Rom_decode.summary (untraced rs) in
  let hist = Hashtbl.create 4 in
  List.iter
    (fun (r : Rom_decode.round) ->
      List.iter
        (fun (d : Rom_decode.decoded) ->
          Hashtbl.replace hist d.jobs_used
            (1 + Option.value ~default:0 (Hashtbl.find_opt hist d.jobs_used)))
        (r.cold @ r.warm))
    all;
  {
    summary;
    measure_s =
      List.map (fun (r : Rom_decode.round) -> r.cold_s +. r.warm_s) (untraced rs);
    counters = Rom_decode.counters all ~traced:(traced rs) ~self;
    context =
      [
        ( "par_decode_calls",
          Printf.sprintf
            {|{"call": "Pipeline.decompress", "jobs_requested": %d, "images": %d, "decodes_by_jobs_used": {%s}}|}
            Common.jobs
            (match all with r :: _ -> List.length r.Rom_decode.cold | [] -> 0)
            (String.concat ", "
               (List.map
                  (fun (j, c) -> Printf.sprintf {|"%d": %d|} j c)
                  (List.sort compare (List.of_seq (Hashtbl.to_seq hist))))) );
      ];
    gc = gc_of rs;
    rounds = List.length rs;
    traced_rounds = List.length (traced rs);
    self;
  }

let run_verify args =
  let rs = drive ~args (Verify.round ~seed:args.seed) in
  let all = List.map (fun x -> x.r) rs in
  let expected =
    if args.seed = Common.default_seed then
      Some (Verify.parse_expected (read_file expected_path))
    else None
  in
  Verify.check_rounds ~expected all;
  let summary = Verify.summary (untraced rs) in
  let pairs =
    match traced rs with
    | r :: _ -> float_of_int (Verify.dfa_pairs_reachable r.Verify.targets)
    | [] -> 0.
  in
  {
    summary;
    measure_s = summary.Report.wall_s;
    counters = [ ("analysis.dfa_pairs_reachable", pairs) ];
    context = [];
    gc = gc_of rs;
    rounds = List.length rs;
    traced_rounds = List.length (traced rs);
    self = self_per_round rs;
  }

(* [Gc.top_heap_words] as the OCaml 5.1 runtime reports it: kept in the
   context only, since it jumps between runs of identical work. *)
let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* Peak resident set of the process (major heap, minor heaps, code and
   stacks), from /proc; 0 where /proc is absent. *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0.
  | text ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> (
                  match float_of_string_opt kb with
                  | Some kb -> kb /. 1e3
                  | None -> acc)
              | [] -> acc)
          | _ -> acc)
        0.
        (String.split_on_char '\n' text)

let () =
  let args = parse_args () in
  let run =
    match args.workload with
    | "figures" -> run_figures
    | "rom-decode" -> run_rom_decode
    | "verify" -> run_verify
    | _ -> usage ()
  in
  if not (Sys.file_exists expected_path) then begin
    Printf.eprintf "bench: %s not found; run from the repository root\n"
      expected_path;
    exit 2
  end;
  let o = run args in
  let s = o.summary in
  Printf.printf
    {|{"context": {"workload": "%s", "seed": %d, "seconds": %s, "trace": %b, "nproc": %d, "jobs_requested": %d, "timed_phase_jobs": %d, "rounds": %d, "traced_rounds": %d, "image_decodes": %d, "git_rev": "%s", "ocaml": "%s", "gc_top_heap_mb": %s%s}}|}
    args.workload args.seed (Report.num args.seconds) args.trace
    (Cccs.Parallel.cores ()) Common.jobs s.Report.jobs_used o.rounds
    o.traced_rounds (List.length s.Report.decode_ms) (git_rev ()) Sys.ocaml_version
    (Report.num (peak_heap_mb ()))
    (String.concat ""
       (List.map (fun (k, v) -> Printf.sprintf {|, "%s": %s|} k v) o.context));
  print_newline ();
  let show xs = String.concat " " (List.map (Printf.sprintf "%.4f") xs) in
  Printf.printf
    "untraced rounds: setup_s [%s] wall_s [%s] cold_mb_s [%s] mb_s [%s]\n"
    (show s.Report.setup_s) (show s.Report.wall_s) (show s.Report.cold_mb_s)
    (show s.Report.mb_s);
  let metrics =
    if not args.trace then
      Report.end_to_end s
    else begin
      let spans = Span.all () in
      if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
      let path =
        Printf.sprintf "%s/spans-%s-seed%d.jsonl" out_dir args.workload
          args.seed
      in
      Span.write path spans;
      Printf.printf "spans: %d written to %s\n" (List.length spans) path;
      let untraced_wall_s = Common.median o.measure_s in
      let a =
        Report.accounting spans ~traced_rounds:o.traced_rounds
          ~jobs:s.Report.jobs_used ~untraced_wall_s
      in
      Printf.printf
        "accounting: layer self %.3f s + idle %.3f s over %d domain(s) = \
         %.1f%% of untraced wall %.3f s (tolerance %.0f%%); harness %.3f s; \
         tracing overhead %+.3f s\n"
        a.layer_self_s a.idle_s s.Report.jobs_used (100. *. a.coverage)
        untraced_wall_s
        (100. *. Report.tolerance)
        a.harness_s
        (a.traced_wall_s -. untraced_wall_s);
      Common.check
        (Printf.sprintf "layer self times cover %.1f%% of the untraced wall"
           (100. *. a.coverage))
        (Float.abs (a.coverage -. 1.) <= Report.tolerance);
      let minor, major = o.gc in
      let derived =
        o.counters
        @ [
            ("emulator.block_visits",
             float_of_int (Atomic.get Common.visits) /. float_of_int o.rounds);
            ("parallel.busy_ratio", a.busy_ratio);
            ( "pipeline.decompress_cold_p50_ms",
              if s.Report.decode_ms = [] then 0.
              else Common.percentile 0.5 s.decode_ms );
            ( "pipeline.decompress_cold_p90_ms",
              if s.Report.decode_ms = [] then 0.
              else Common.percentile 0.9 s.decode_ms );
            ("gc.minor_mwords", minor);
            ("gc.major_collections", major);
            ("process.peak_rss_mb", peak_rss_mb ());
            ("trace.untraced_wall_s", untraced_wall_s);
            ("trace.traced_wall_s", a.traced_wall_s);
            ("trace.overhead_s", a.traced_wall_s -. untraced_wall_s);
            ("trace.layer_self_s", a.layer_self_s);
            ("trace.harness_s", a.harness_s);
            ("trace.idle_s", a.idle_s);
            ("trace.coverage", a.coverage);
            ("check.error_rate", Common.error_rate ());
          ]
      in
      List.map
        (fun (name, unit) ->
          let v =
            match List.assoc_opt name derived with
            | Some v -> v
            | None -> o.self name
          in
          (name, unit, v))
        Report.per_layer_units
    end
  in
  List.iter
    (fun (name, unit, v) -> Printf.printf "%-40s %14.6g %s\n" name v unit)
    metrics;
  Printf.printf "checks: %d attempted, %d failed\n"
    (Atomic.get Common.attempted) (Atomic.get Common.failed);
  print_endline (Report.result_line metrics)
