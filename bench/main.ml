(* Benchmark harness.

   Running this executable first regenerates every table and figure of the
   paper's evaluation (printed as text tables; see EXPERIMENTS.md for the
   recorded paper-vs-measured comparison), then times the pipeline stage
   behind each figure with Bechamel — one Test.make per experiment, plus
   the substrate operations they are built from. *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Shared fixtures: one small SPEC-like program and one kernel.        *)
(* ------------------------------------------------------------------ *)

let load name =
  lazy (Cccs.Workload_run.load (Option.get (Workloads.Suite.find name)))

let fixture = load "compress"
let kernel = load "fir"

let program () = (Lazy.force fixture).Cccs.Workload_run.compiled.Cccs.Pipeline.program
let trace () = (Lazy.force fixture).Cccs.Workload_run.exec.Emulator.Exec.trace

(* ------------------------------------------------------------------ *)
(* Cross-run plumbing: the telemetry ledger and --flame spans.         *)
(* ------------------------------------------------------------------ *)

(* Every mode appends its result rows to the ledger (CCCS_LEDGER=off
   disables), so `cccs perfdiff` can compare consecutive runs. *)
let ledger_append ~kind ?schemes rows =
  Cccs_obs.Ledger.record ~kind ~timestamp:(Unix.gettimeofday ())
    ~cores:(Cccs.Parallel.cores ()) ~jobs:(Cccs.Parallel.default_jobs ())
    ?schemes rows
  |> Result.iter_error (Printf.eprintf "ledger: %s\n%!")

(* --flame FILE: one recorder for the whole run; each phase below wraps
   itself in a Bench-stage span through [bspan]. *)
let flame_obs : Cccs_obs.Sink.t option ref = ref None

let bspan label f =
  match !flame_obs with
  | None -> f ()
  | Some obs -> Cccs_obs.Sink.timed ~obs ~stage:Cccs_obs.Event.Bench ~label f

let flame_path () =
  let p = ref None in
  Array.iteri
    (fun i a ->
      if a = "--flame" && i + 1 < Array.length Sys.argv then
        p := Some Sys.argv.(i + 1)
      else if
        String.length a > 8 && String.sub a 0 8 = "--flame="
      then p := Some (String.sub a 8 (String.length a - 8)))
    Sys.argv;
  !p

(* ------------------------------------------------------------------ *)
(* One benchmark group per figure.                                     *)
(* ------------------------------------------------------------------ *)

(* Figure 5: the compression schemes themselves. *)
let bench_fig5 =
  Test.make_grouped ~name:"fig5" ~fmt:"%s/%s"
    [
      Test.make ~name:"byte_huffman"
        (Staged.stage (fun () -> Encoding.Byte_huffman.build (program ())));
      Test.make ~name:"full_huffman"
        (Staged.stage (fun () -> Encoding.Full_huffman.build (program ())));
      Test.make ~name:"stream_huffman"
        (Staged.stage (fun () -> Encoding.Stream_huffman.build (program ())));
      Test.make ~name:"tailored"
        (Staged.stage (fun () -> Encoding.Tailored.build (program ())));
    ]

(* Figure 7: ATT generation. *)
let bench_fig7 =
  let scheme = lazy (Encoding.Full_huffman.build (program ())) in
  Test.make_grouped ~name:"fig7" ~fmt:"%s/%s"
    [
      Test.make ~name:"att_build"
        (Staged.stage (fun () ->
             Encoding.Att.build (Lazy.force scheme) ~line_bits:240 (program ())));
    ]

(* Figure 10: decoder complexity evaluation. *)
let bench_fig10 =
  Test.make_grouped ~name:"fig10" ~fmt:"%s/%s"
    [
      Test.make ~name:"decoder_cost"
        (Staged.stage (fun () -> Huffman.Decoder_cost.transistors ~n:16 ~m:40));
    ]

(* Figure 13: the fetch simulators. *)
let bench_fig13 =
  let mk model cfg scheme =
    let sch = lazy (scheme (program ())) in
    let att =
      lazy
        (Encoding.Att.build (Lazy.force sch)
           ~line_bits:cfg.Fetch.Config.line_bits (program ()))
    in
    Staged.stage (fun () ->
        Fetch.Sim.run ~model ~cfg ~scheme:(Lazy.force sch)
          ~att:(Lazy.force att) (trace ()))
  in
  Test.make_grouped ~name:"fig13" ~fmt:"%s/%s"
    [
      Test.make ~name:"sim_base"
        (mk Fetch.Config.Base Fetch.Config.default_base Encoding.Baseline.build);
      Test.make ~name:"sim_compressed"
        (mk Fetch.Config.Compressed Fetch.Config.default
           Encoding.Full_huffman.build);
      Test.make ~name:"sim_tailored"
        (mk Fetch.Config.Tailored Fetch.Config.default Encoding.Tailored.build);
    ]

(* Figure 14 measures the same runs as Figure 13; its distinct cost is the
   bus transition accounting. *)
let bench_fig14 =
  let image = lazy (Encoding.Baseline.build (program ())).Encoding.Scheme.image in
  Test.make_grouped ~name:"fig14" ~fmt:"%s/%s"
    [
      Test.make ~name:"bus_line_flips"
        (Staged.stage (fun () ->
             let bus =
               Fetch.Bus.create Fetch.Config.default ~image:(Lazy.force image)
             in
             for line = 0 to 63 do
               ignore (Fetch.Bus.fetch_line bus line)
             done;
             Fetch.Bus.total_flips bus));
    ]

(* Substrate: the pieces every figure depends on. *)
let bench_substrate =
  Test.make_grouped ~name:"substrate" ~fmt:"%s/%s"
    [
      Test.make ~name:"baseline_encode"
        (Staged.stage (fun () -> Tepic.Program.baseline_image (program ())));
      Test.make ~name:"compile_kernel"
        (Staged.stage (fun () ->
             Cccs.Pipeline.compile (Workloads.Kernels.fir ~taps:16 ~samples:16)));
      Test.make ~name:"emulate_kernel"
        (Staged.stage (fun () ->
             Emulator.Exec.run
               (Lazy.force kernel).Cccs.Workload_run.compiled
                 .Cccs.Pipeline.program));
      Test.make ~name:"huffman_codebook_256"
        (Staged.stage (fun () ->
             let freq = Huffman.Freq.create () in
             for i = 0 to 255 do
               Huffman.Freq.add_many freq i ((i * 37 mod 251) + 1)
             done;
             Huffman.Codebook.make ~max_len:12 ~symbol_bits:(fun _ -> 8) freq));
    ]

(* Extensions: superblock fetch units and gshare prediction. *)
let bench_extensions =
  let units = lazy (Fetch.Superblock.form (program ())) in
  let base = lazy (Encoding.Baseline.build (program ())) in
  let att =
    lazy
      (Encoding.Att.build (Lazy.force base)
         ~line_bits:Fetch.Config.default_base.Fetch.Config.line_bits
         (program ()))
  in
  Test.make_grouped ~name:"extensions" ~fmt:"%s/%s"
    [
      Test.make ~name:"superblock_form"
        (Staged.stage (fun () -> Fetch.Superblock.form (program ())));
      Test.make ~name:"superblock_sim"
        (Staged.stage (fun () ->
             Fetch.Superblock.run ~model:Fetch.Config.Base
               ~cfg:Fetch.Config.default_base ~scheme:(Lazy.force base)
               ~att:(Lazy.force att) (Lazy.force units) (trace ())));
      Test.make ~name:"gshare_sim"
        (Staged.stage (fun () ->
             let cfg =
               {
                 Fetch.Config.default_base with
                 Fetch.Config.predictor = Fetch.Config.Gshare 12;
               }
             in
             Fetch.Sim.run ~model:Fetch.Config.Base ~cfg
               ~scheme:(Lazy.force base) ~att:(Lazy.force att) (trace ())));
    ]

(* The verifier, one group per check and one row per scheme × workload,
   so a slowdown shows up in BENCH_obs.json like any other pipeline-stage
   regression:
   - validate: abstract decode + resync analysis;
   - certify: DFA construction + exhaustive totality, LUT and resync
     proofs, all static work over the published tables, so its cost is
     independent of program length and should stay flat;
   - wcet: CFG recovery + must/may fixpoint + WCET + the full
     simulator-replay soundness check — the end-to-end cost of one
     `cccs wcet` row. *)
let bench_verifier =
  let schemes =
    [
      ("base", fun (sl : Cccs.Experiments.schemes) -> sl.Cccs.Experiments.base);
      ("byte", fun sl -> sl.Cccs.Experiments.byte);
      ("stream", fun sl -> snd (List.hd sl.Cccs.Experiments.streams));
      ("full", fun sl -> sl.Cccs.Experiments.full);
      ("tailored", fun sl -> sl.Cccs.Experiments.tailored);
      ("dict", fun sl -> sl.Cccs.Experiments.dict);
    ]
  in
  let checks =
    [
      ( "validate",
        fun ~workload ~program ~trace:_ sl sc ->
          ignore
            (Cccs.Analysis.Image_check.check_scheme ~workload ~program
               ~tailored:sl.Cccs.Experiments.tailored_spec ~resync_blocks:2 sc)
      );
      ( "certify",
        fun ~workload ~program ~trace:_ _ sc ->
          ignore (Cccs.Analysis.Certify.certify_scheme ~workload ~program sc) );
      ( "wcet",
        fun ~workload ~program ~trace sl sc ->
          ignore
            (Cccs.Analysis.Timing_check.analyze_scheme ~workload ~program
               ~tailored:sl.Cccs.Experiments.tailored_spec ~trace sc) );
    ]
  in
  let tests_of check (run, workload) =
    let s = lazy (Cccs.Experiments.schemes_of (Lazy.force run)) in
    let program =
      lazy (Lazy.force run).Cccs.Workload_run.compiled.Cccs.Pipeline.program
    in
    let trace =
      lazy (Lazy.force run).Cccs.Workload_run.exec.Emulator.Exec.trace
    in
    List.map
      (fun (name, sc_of) ->
        Test.make ~name:(workload ^ ":" ^ name)
          (Staged.stage (fun () ->
               let sl = Lazy.force s in
               check ~workload ~program:(Lazy.force program)
                 ~trace:(Lazy.force trace) sl (sc_of sl))))
      schemes
  in
  List.map
    (fun (group, check) ->
      Test.make_grouped ~name:group ~fmt:"%s/%s"
        (List.concat_map (tests_of check)
           [ (fixture, "compress"); (kernel, "fir") ]))
    checks

let all_tests =
  Test.make_grouped ~name:"cccs" ~fmt:"%s %s"
    ([ bench_fig5; bench_fig7; bench_fig10; bench_fig13; bench_fig14;
       bench_substrate; bench_extensions ]
    @ bench_verifier)

let run_benchmarks () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  (* Noise fix: the old limit:200 / quota:0.5s / default Geometric 1.01
     sampling gave some rows so few (and so uniform) run counts that the
     OLS fit had negative r-square.  A 1s minimum-runtime quota, a higher
     sample cap and a steeper sampling ratio give the fit real spread;
     rows that still miss the r-square gate (e.g. certify/compress runs
     near the quota itself) are marked untrusted below rather than
     compared. *)
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 1.0)
      ~sampling:(`Geometric 1.05) ~kde:(Some 10) ()
  in
  let raw = Benchmark.all cfg instances all_tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Printf.printf "\n%-42s %16s %8s\n" "benchmark" "ns/run" "r^2";
  Printf.printf "%s\n" (String.make 68 '-');
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  List.filter_map
    (fun (name, ols_result) ->
      let est =
        match Analyze.OLS.estimates ols_result with
        | Some (e :: _) -> e
        | _ -> nan
      in
      let r2 =
        match Analyze.OLS.r_square ols_result with Some r -> r | None -> nan
      in
      let trusted = Float.is_finite r2 && r2 >= 0.9 in
      Printf.printf "%-42s %16.1f %8.3f%s\n" name est r2
        (if trusted then "" else "  (untrusted)");
      if Float.is_nan est then None else Some (name, est, r2, trusted))
    (List.sort compare rows)

(* Machine-readable copy of the table above, archived by CI so timing
   regressions can be compared across runs. *)
let write_obs rows =
  let open Cccs_obs.Json in
  let row_json (name, ns, r2, trusted) =
    Obj
      [
        ("name", Str name);
        ("ns_per_run", Num ns);
        ("r_square", Num r2);
        ("trusted", Bool trusted);
      ]
  in
  let json_rows = List.map row_json rows in
  let j =
    Obj
      [
        ("schema", Str "cccs-bench/1");
        ("results", Arr json_rows);
      ]
  in
  Cccs_obs.Export.write_file "BENCH_obs.json" (to_string j ^ "\n");
  ledger_append ~kind:"bench" json_rows;
  Printf.printf "\nwrote %d benchmark rows to BENCH_obs.json\n"
    (List.length rows)

(* ------------------------------------------------------------------ *)
(* perf group: decode, fetch replay and sweep wall-clock.             *)
(*                                                                    *)
(* `bench perf` skips the Bechamel suite and measures symbol decode   *)
(* throughput (two-level table vs the bit-serial reference), the      *)
(* whole-image decode, the fetch models' block visits per second and  *)
(* the experiment sweep wall-clock at CCCS_JOBS=1 vs 4.  Results land *)
(* in BENCH_perf.json (schema "cccs-bench/1") for CI to archive.      *)
(* ------------------------------------------------------------------ *)

(* Every row is timed on the monotonic clock, in seconds. *)
let mono_s () = Monotonic_clock.get () /. 1e9

(* The best of several timed runs: noise only ever slows a run down. *)
let fastest = List.fold_left Float.min infinity

(* Deterministic symbol source — stdlib Random changed algorithms across
   releases, and the stream must be identical for both decoders. *)
let lcg s = ((s * 1103515245) + 12345) land 0x3FFFFFFF

(* A long codeword stream in a real codebook: symbols drawn uniformly
   from the alphabet, encoded with the book itself, so every read is a
   valid decode and both decoders walk identical bits. *)
let symbol_stream book ~target_bits =
  let syms =
    Array.of_list
      (List.map
         (fun (s, _, _) -> s)
         (Huffman.Canonical.to_list (Huffman.Codebook.canonical book)))
  in
  let w = Bits.Writer.create () in
  let n = ref 0 and state = ref 42 in
  while Bits.Writer.length w < target_bits do
    state := lcg !state;
    Huffman.Codebook.write book w syms.(!state mod Array.length syms);
    incr n
  done;
  (Bits.Writer.contents w, !n)

(* Two concrete passes (not one parameterized by the decoder) so the
   per-symbol call is direct in both loops — an indirect call per symbol
   would tax both decoders equally and dilute the measured ratio. *)
let pass_table book data nsyms =
  let r = Bits.Reader.of_string data in
  let acc = ref 0 in
  for _ = 1 to nsyms do
    acc := !acc + Huffman.Codebook.read book r
  done;
  !acc

let pass_serial book data nsyms =
  let r = Bits.Reader.of_string data in
  let acc = ref 0 in
  for _ = 1 to nsyms do
    acc := !acc + Huffman.Codebook.read_serial book r
  done;
  !acc

(* Faithful replica of the decoder this engine replaced: first-code-per-
   length walk with an [int option ref] poked once per bit and a
   polymorphic [<> None] loop test.  Kept here (not in the library) purely
   as the historical baseline the decode-throughput speedup is quoted
   against; [read_serial] is the same algorithm after the hot-loop fix. *)
let seed_decoder book =
  let canon = Huffman.Codebook.canonical book in
  let entries = Huffman.Canonical.to_list canon in
  let max_len = Huffman.Canonical.max_length canon in
  let first_code = Array.make (max_len + 1) (-1) in
  let first_index = Array.make (max_len + 1) (-1) in
  let count_at = Array.make (max_len + 1) 0 in
  let symbols = Array.of_list (List.map (fun (s, _, _) -> s) entries) in
  List.iteri
    (fun i (_, c, l) ->
      count_at.(l) <- count_at.(l) + 1;
      if first_code.(l) < 0 then begin
        first_code.(l) <- c;
        first_index.(l) <- i
      end)
    entries;
  fun r ->
    let result = ref None in
    let acc = ref 0 and len = ref 0 in
    while !result = None do
      if !len >= max_len then invalid_arg "seed decoder: invalid code";
      acc := (!acc lsl 1) lor (if Bits.Reader.read_bit r then 1 else 0);
      incr len;
      let fc = first_code.(!len) in
      let off = !acc - fc in
      if fc >= 0 && off >= 0 && off < count_at.(!len) then
        result := Some symbols.(first_index.(!len) + off)
    done;
    match !result with Some s -> s | None -> assert false

let pass_seed decode data nsyms =
  let r = Bits.Reader.of_string data in
  let acc = ref 0 in
  for _ = 1 to nsyms do
    acc := !acc + decode r
  done;
  !acc

(* MB/s over the compressed payload for both decoders.  The untimed first
   passes warm both paths and, on the table path, trigger the lazy LUT
   build, so table construction is not billed to decode time (it is
   amortized over a whole program image in real use).  The two decoders
   run in interleaved timing windows and each takes its best window:
   external noise (scheduler steal on a shared box) only ever slows a
   window down, so the max is the least-perturbed estimate, and
   interleaving keeps a noise burst from taxing only one side. *)
let throughput book data nsyms =
  let seed = seed_decoder book in
  let expect = pass_table book data nsyms in
  if pass_serial book data nsyms <> expect then
    failwith "bench perf: serial/table decode mismatch";
  if pass_seed seed data nsyms <> expect then
    failwith "bench perf: seed/table decode mismatch";
  let bytes = float_of_int (String.length data) in
  let window pass =
    let t0 = mono_s () in
    let passes = ref 0 and elapsed = ref 0.0 in
    while !elapsed < 0.2 do
      if pass () <> expect then failwith "bench perf: decode mismatch";
      incr passes;
      elapsed := mono_s () -. t0
    done;
    float_of_int !passes *. bytes /. 1e6 /. !elapsed
  in
  let wt = ref [] and ws = ref [] and w0 = ref [] in
  for _ = 1 to 5 do
    wt := window (fun () -> pass_table book data nsyms) :: !wt;
    ws := window (fun () -> pass_serial book data nsyms) :: !ws;
    w0 := window (fun () -> pass_seed seed data nsyms) :: !w0
  done;
  let best l = List.fold_left Float.max 0.0 l in
  (* All per-window table readings ride along as "samples" so perfdiff
     can bootstrap a confidence interval instead of trusting one point. *)
  (best !wt, best !ws, best !w0, List.rev !wt)

type decode_perf = {
  scheme : string;
  table_mb_s : float;
  serial_mb_s : float;
  seed_mb_s : float;
  table_windows : float list;
}

let perf_decode () =
  let prog = program () in
  [
    ("full", Encoding.Full_huffman.build prog);
    ("byte", Encoding.Byte_huffman.build prog);
  ]
  |> List.map (fun (scheme, sc) ->
         let book = List.assoc scheme sc.Encoding.Scheme.books in
         let data, nsyms = symbol_stream book ~target_bits:(8 * 256 * 1024) in
         let table_mb_s, serial_mb_s, seed_mb_s, table_windows =
           throughput book data nsyms
         in
         { scheme; table_mb_s; serial_mb_s; seed_mb_s; table_windows })

(* ------------------------------------------------------------------ *)
(* perf/image-decode: the whole-image decode behind `cccs decode`      *)
(* (Cccs.Par_decode.decode), end to end.  Three schemes — fixed widths *)
(* (base), unframed Huffman (full) and framed Huffman (full+crc16) —   *)
(* each checked byte-for-byte against the 40-bit baseline image.  Set  *)
(* these rows against perf/decode/*, the Huffman kernel alone.  Each   *)
(* row is printed as it is measured and returned as its JSON row.      *)
(* ------------------------------------------------------------------ *)

let perf_image_decode ~cores =
  let prog = program () in
  let truth = Tepic.Program.baseline_image prog in
  let full = Encoding.Full_huffman.build prog in
  let schemes =
    [
      ("base", Encoding.Baseline.build prog);
      ("full", full);
      ("full+crc16", Encoding.Scheme.protect Encoding.Scheme.Crc16 full);
    ]
  in
  List.map
    (fun (name, sc) ->
      let decode () =
        match Cccs.Par_decode.decode sc with
        | Ok out -> out
        | Error e ->
            failwith
              ("bench perf: image-decode: "
              ^ Encoding.Scheme.decode_error_to_string e)
      in
      let out = decode () in
      if out <> truth then
        failwith
          (Printf.sprintf
             "bench perf: image-decode %s diverged from the baseline image"
             name);
      let window () =
        let t0 = mono_s () in
        let reps = ref 0 and elapsed = ref 0.0 in
        while !elapsed < 0.2 do
          ignore (decode ());
          incr reps;
          elapsed := mono_s () -. t0
        done;
        !elapsed /. float_of_int !reps
      in
      (* Best of three windows: noise only ever slows a window. *)
      let samples = List.init 3 (fun _ -> window ()) in
      let seconds = fastest samples in
      let bytes = String.length sc.Encoding.Scheme.image in
      (* Compressed bytes through the decoder. *)
      let mb_per_s = float_of_int bytes /. seconds /. 1e6 in
      Printf.printf "perf/image-decode/%-10s  %7.1f MB/s  %7.3f ms\n%!" name
        mb_per_s (seconds *. 1e3);
      Cccs_obs.Json.(
        Obj
          [
            ("name", Str ("perf/image-decode/" ^ name));
            ("mb_per_s", Num mb_per_s);
            ("seconds", Num seconds);
            ("cores", int cores);
            ("compressed_bytes", int bytes);
            ("decoded_bytes", int (String.length out));
            ("samples", Arr (List.map (fun x -> Num x) samples));
          ]))
    schemes

(* ------------------------------------------------------------------ *)
(* perf/fetch-sim: the three simulated Figure 13 fetch models, each   *)
(* replaying m88ksim's trace through the ATB, the line cache, the L0  *)
(* buffer and the bus.  Every replay must deliver exactly the ops the *)
(* trace executed and repeat the first replay's result.               *)
(* ------------------------------------------------------------------ *)

let perf_fetch_sim ~cores =
  let r =
    Cccs.Workload_run.load (Option.get (Workloads.Suite.find "m88ksim"))
  in
  let executed =
    Emulator.Trace.total_ops r.Cccs.Workload_run.exec.Emulator.Exec.trace
  in
  List.filter_map
    (fun (name, run) ->
      if name = "ideal" then None
      else begin
        (* The untimed first replay also builds the model's ATT. *)
        let expect = run ?obs:None () in
        let sim () =
          let res = run ?obs:None () in
          if res <> expect || res.Fetch.Sim.ops_delivered <> executed then
            failwith
              (Printf.sprintf
                 "bench perf: fetch-sim/%s delivered %d ops of %d executed"
                 name res.Fetch.Sim.ops_delivered executed)
        in
        let visits = expect.Fetch.Sim.block_visits in
        let window () =
          let t0 = mono_s () in
          let reps = ref 0 and elapsed = ref 0.0 in
          while !elapsed < 0.2 do
            sim ();
            incr reps;
            elapsed := mono_s () -. t0
          done;
          float_of_int (!reps * visits) /. !elapsed
        in
        (* Best of three windows: noise only ever slows a window. *)
        let samples = List.init 3 (fun _ -> window ()) in
        let visits_per_s = List.fold_left Float.max 0.0 samples in
        Printf.printf "perf/fetch-sim/%-10s  %6.2f M visits/s  %6.1f ns/visit\n%!"
          name (visits_per_s /. 1e6) (1e9 /. visits_per_s);
        Some
          Cccs_obs.Json.(
            Obj
              [
                ("name", Str ("perf/fetch-sim/" ^ name));
                ("visits_per_s", Num visits_per_s);
                ("ns_per_visit", Num (1e9 /. visits_per_s));
                ("cores", int cores);
                ("visits", int visits);
                ("ops_delivered", int expect.Fetch.Sim.ops_delivered);
                ("samples", Arr (List.map (fun x -> Num x) samples));
              ])
      end)
    (Cccs.Experiments.fetch_models r)

(* ------------------------------------------------------------------ *)
(* perf/compile, perf/emulate and perf/scheme-build: the layers every  *)
(* figure loads through, over the 13 suite programs one after another  *)
(* on one core, timed on the monotonic clock.  Each row is the best of *)
(* three passes, and every pass must reproduce the first pass's        *)
(* baseline images, trace lengths and checksums, or scheme images.     *)
(* ------------------------------------------------------------------ *)

(* [passes name ~check pass] — three timed runs of [pass], each [check]ed
   off the clock against the first: the first run's checked result, the
   samples, and the minor-heap words of the first run. *)
let passes name ~check pass =
  let run () =
    let words0 = Gc.minor_words () and t0 = mono_s () in
    let r = pass () in
    let s = mono_s () -. t0 in
    (check r, s, Gc.minor_words () -. words0)
  in
  let first, s0, words = run () in
  let samples =
    s0
    :: List.init 2 (fun _ ->
           let r, s, _ = run () in
           if r <> first then
             failwith ("bench perf: " ^ name ^ " changed on a later pass");
           s)
  in
  (first, samples, words)

let perf_row ~cores ?(extra = []) name ~ops samples =
  let seconds = fastest samples in
  let ns_per_op = seconds *. 1e9 /. float_of_int ops in
  Printf.printf "perf/%-21s %7.3f s  %7.1f ns/op\n%!" name seconds ns_per_op;
  Cccs_obs.Json.(
    Obj
      ([
         ("name", Str ("perf/" ^ name));
         ("seconds", Num seconds);
         ("ns_per_op", Num ns_per_op);
         ("cores", int cores);
         ("ops", int ops);
         ("samples", Arr (List.map (fun x -> Num x) samples));
       ]
      @ extra))

(* perf/compile/suite: [Pipeline.compile] of each generated program;
   [ops] counts the ops compiled. *)
let perf_compile ~cores progs =
  let workloads = List.map Cccs.Workload_run.generate Workloads.Suite.all in
  let _, samples, _ =
    passes "compile/suite"
      ~check:(List.map Tepic.Program.baseline_image)
      (fun () ->
        List.map
          (fun w -> (Cccs.Pipeline.compile w).Cccs.Pipeline.program)
          workloads)
  in
  let ops = List.fold_left (fun a p -> a + Tepic.Program.num_ops p) 0 progs in
  perf_row ~cores "compile/suite" ~ops samples

(* perf/emulate/suite: [Exec.run] of each compiled program; [ops] counts
   the ops executed, and [minor_words_per_op] is what they allocate. *)
let perf_emulate ~cores progs =
  let first, samples, words =
    passes "emulate/suite"
      ~check:
        (List.map (fun (r : Emulator.Exec.result) ->
             ( Emulator.Trace.length r.trace,
               Emulator.Trace.total_ops r.trace,
               Emulator.Machine.checksum r.machine )))
      (fun () -> List.map (Emulator.Exec.run ~max_blocks:3_000_000) progs)
  in
  let ops = List.fold_left (fun a (_, ops, _) -> a + ops) 0 first in
  let words_per_op = words /. float_of_int ops in
  let row =
    perf_row ~cores "emulate/suite" ~ops samples
      ~extra:[ ("minor_words_per_op", Cccs_obs.Json.Num words_per_op) ]
  in
  Printf.printf "perf/emulate/suite     %7.3f minor words/op\n%!" words_per_op;
  row

(* perf/scheme-build: every scheme builder; the stream row builds all six
   configurations. *)
let perf_scheme_build ~cores progs =
  let ops = List.fold_left (fun a p -> a + Tepic.Program.num_ops p) 0 progs in
  let image build p = [ (build p).Encoding.Scheme.image ] in
  let builders =
    [
      ("base", image Encoding.Baseline.build);
      ("byte", image Encoding.Byte_huffman.build);
      ( "stream",
        fun p ->
          List.concat_map
            (fun (_, config) -> image (Encoding.Stream_huffman.build ~config) p)
            Encoding.Stream_huffman.configs );
      ("full", image Encoding.Full_huffman.build);
      ("tailored", image Encoding.Tailored.build);
      ("dict", image Encoding.Dictionary.build);
    ]
  in
  List.map
    (fun (name, build) ->
      let name = "scheme-build/" ^ name in
      let _, samples, _ =
        passes name ~check:Fun.id (fun () -> List.concat_map build progs)
      in
      perf_row ~cores name ~ops samples)
    builders

(* The jobs=4 sweep may not cost more than this over jobs=1. *)
let never_lose_factor = 1.15

(* One cold-cache sweep: fig5 + fig13 for the whole SPEC set in a single
   Experiments.sweep, so the parallel run duplicates no work against the
   sequential one (each workload is loaded, encoded and simulated exactly
   once per sweep in both modes). *)
let sweep_once ~jobs =
  Cccs.Workload_run.clear_cache ();
  Cccs.Experiments.clear_cache ();
  let t0 = mono_s () in
  let rows = Cccs.Experiments.(sweep ~jobs (fun r -> (fig5_for r, fig13_for r))) in
  (rows, mono_s () -. t0)

(* perf/sweep/jobs{1,4}: three alternating jobs=1 / jobs=4 pairs, so a
   noise burst cannot tax one side only, and every pass must produce the
   first jobs=1 pass's rows.  Each row keeps its side's best pass and all
   its [samples].  The never-lose check runs only once the rows are
   printed, so a failed run still shows its numbers.  On a 1-core runner
   Parallel.map degrades jobs=4 to the sequential walk, so the jobs=4
   sweep may never lose to jobs=1 past noise.  (This run used to regress
   to 0.46x on 1 core before the clamp existed.) *)
let perf_sweep ~cores =
  let first, t1 = sweep_once ~jobs:1 in
  let timed jobs =
    let rows, s = sweep_once ~jobs in
    if rows <> first then
      failwith
        (Printf.sprintf "bench perf: jobs=%d sweep diverged from jobs=1" jobs);
    s
  in
  let t4 = timed 4 in
  let rest = List.init 2 (fun _ -> (timed 1, timed 4)) in
  let sweep1 = t1 :: List.map fst rest and sweep4 = t4 :: List.map snd rest in
  let s1 = fastest sweep1 and s4 = fastest sweep4 in
  Printf.printf
    "perf/sweep   jobs=1 %6.2fs   jobs=4 %6.2fs   %5.2fx  (best of %d \
     pairs, %d cores, results identical)\n"
    s1 s4 (s1 /. s4) (List.length sweep1) cores;
  if s4 > (s1 *. never_lose_factor) +. 0.1 then
    failwith
      (Printf.sprintf
         "bench perf: sweep jobs=4 (%.2fs) lost to jobs=1 (%.2fs) past the \
          %.2fx never-lose bound (%d cores)"
         s4 s1 never_lose_factor cores);
  let open Cccs_obs.Json in
  let samples l = ("samples", Arr (List.map (fun x -> Num x) l)) in
  [
    Obj
      [
        ("name", Str "perf/sweep/jobs1");
        ("seconds", Num s1);
        ("cores", int cores);
        samples sweep1;
      ];
    Obj
      [
        ("name", Str "perf/sweep/jobs4");
        ("seconds", Num s4);
        ("speedup", Num (s1 /. s4));
        ("cores", int cores);
        samples sweep4;
      ];
  ]

(* BENCH_perf.json is shared by the [perf] and [fuzz] modes: each mode
   owns the name prefixes it writes and must not clobber the other's rows,
   so writes go through a read-merge — keep every existing row outside our
   prefixes, replace the rest. *)
let write_perf_rows ~prefixes rows =
  let open Cccs_obs.Json in
  let starts_with p s =
    String.length s >= String.length p && String.sub s 0 (String.length p) = p
  in
  let existing =
    if not (Sys.file_exists "BENCH_perf.json") then []
    else
      match
        parse (In_channel.with_open_bin "BENCH_perf.json" In_channel.input_all)
      with
      | Error _ -> []
      | Ok j -> (
          match Option.bind (member "results" j) to_list with
          | Some l ->
              List.filter
                (fun r ->
                  match member "name" r with
                  | Some (Str n) ->
                      not (List.exists (fun p -> starts_with p n) prefixes)
                  | _ -> false)
                l
          | None -> [])
  in
  let j =
    Obj
      [
        ("schema", Str "cccs-bench/1");
        ("results", Arr (existing @ rows));
      ]
  in
  Cccs_obs.Export.write_file "BENCH_perf.json" (to_string j ^ "\n");
  Printf.printf "wrote %d rows to BENCH_perf.json (%d kept)\n"
    (List.length rows) (List.length existing)

let write_perf ~cores decode_rows ~image_rows ~fetch_rows ~load_rows
    ~build_rows ~sweep_rows =
  let open Cccs_obs.Json in
  let decode_json d =
    Obj
      [
        ("name", Str ("perf/decode/" ^ d.scheme));
        ("mb_per_s", Num d.table_mb_s);
        ("serial_mb_per_s", Num d.serial_mb_s);
        ("seed_mb_per_s", Num d.seed_mb_s);
        ("speedup_vs_serial", Num (d.table_mb_s /. d.serial_mb_s));
        ("speedup_vs_seed", Num (d.table_mb_s /. d.seed_mb_s));
        ("cores", int cores);
        ("samples", Arr (List.map (fun x -> Num x) d.table_windows));
      ]
  in
  let rows =
    List.map decode_json decode_rows
    @ image_rows
    @ fetch_rows
    @ load_rows @ build_rows @ sweep_rows
  in
  write_perf_rows
    ~prefixes:
      [
        "perf/decode/";
        "perf/image-decode/";
        "perf/fetch-sim/";
        "perf/compile/";
        "perf/emulate/";
        "perf/scheme-build/";
        "perf/sweep/";
      ]
    rows;
  ledger_append ~kind:"bench_perf"
    ~schemes:(List.map (fun d -> d.scheme) decode_rows)
    rows

let run_perf () =
  Printf.printf
    "CCCS perf — decode, fetch replay, compile, emulate, scheme build and \
     sweep wall-clock\n%s\n"
    (String.make 68 '-');
  let decode_rows = bspan "decode" perf_decode in
  List.iter
    (fun d ->
      Printf.printf
        "perf/decode/%-6s table %7.1f MB/s | serial %6.1f MB/s (%4.1fx) | \
         seed %5.1f MB/s (%4.1fx)\n%!"
        d.scheme d.table_mb_s d.serial_mb_s
        (d.table_mb_s /. d.serial_mb_s)
        d.seed_mb_s
        (d.table_mb_s /. d.seed_mb_s))
    decode_rows;
  let cores = Cccs.Parallel.cores () in
  let image_rows = bspan "image-decode" (fun () -> perf_image_decode ~cores) in
  let fetch_rows = bspan "fetch-sim" (fun () -> perf_fetch_sim ~cores) in
  let progs =
    List.map
      (fun e ->
        (Cccs.Workload_run.load e).Cccs.Workload_run.compiled
          .Cccs.Pipeline.program)
      Workloads.Suite.all
  in
  let compile_row = bspan "compile" (fun () -> perf_compile ~cores progs) in
  let emulate_row = bspan "emulate" (fun () -> perf_emulate ~cores progs) in
  let build_rows =
    bspan "scheme-build" (fun () -> perf_scheme_build ~cores progs)
  in
  let sweep_rows = bspan "sweep" (fun () -> perf_sweep ~cores) in
  write_perf ~cores decode_rows ~image_rows ~fetch_rows
    ~load_rows:[ compile_row; emulate_row ] ~build_rows ~sweep_rows

(* ------------------------------------------------------------------ *)
(* fuzz group: campaign throughput and bounded-memory trace streaming. *)
(*                                                                     *)
(* `bench fuzz` measures the differential fuzzing engine (cases/sec    *)
(* over a fixed-seed campaign) and the streaming trace path: a         *)
(* two-million-visit trace is written through Trace_stream, replayed   *)
(* through Fetch.Sim.run_iter without ever materializing the visit     *)
(* sequence, and the heap is sampled along the way — growth past the   *)
(* cap (or a result that differs from the direct in-memory iterator)   *)
(* fails the run.  Rows land in BENCH_perf.json next to the perf       *)
(* group's.                                                            *)
(* ------------------------------------------------------------------ *)

let stream_target_visits = 2_000_000
let stream_heap_cap_bytes = 32 * 1024 * 1024

let fuzz_campaign_row () =
  let spec = { Cccs_fuzz.Fuzz.default_spec with Cccs_fuzz.Fuzz.runs = 2000 } in
  let r = Cccs_fuzz.Fuzz.run spec in
  if r.Cccs_fuzz.Fuzz.findings <> [] then
    failwith "bench fuzz: fixed-seed campaign produced findings";
  let cases = r.Cccs_fuzz.Fuzz.tallies.Cccs_fuzz.Fuzz.cases in
  let cps = float_of_int cases /. r.Cccs_fuzz.Fuzz.seconds in
  Printf.printf "perf/fuzz/campaign   %d cases in %.2fs  (%.0f cases/s)\n%!"
    cases r.Cccs_fuzz.Fuzz.seconds cps;
  let open Cccs_obs.Json in
  Obj
    [
      ("name", Str "perf/fuzz/campaign");
      ("cases", int cases);
      ("seconds", Num r.Cccs_fuzz.Fuzz.seconds);
      ("cases_per_s", Num cps);
      ("findings", int (List.length r.Cccs_fuzz.Fuzz.findings));
    ]

let stream_rows () =
  let module Ts = Workloads.Trace_stream in
  let run_k = Lazy.force kernel in
  let prog = run_k.Cccs.Workload_run.compiled.Cccs.Pipeline.program in
  let base =
    let acc = ref [] in
    Emulator.Trace.iter
      (fun b -> acc := b :: !acc)
      run_k.Cccs.Workload_run.exec.Emulator.Exec.trace;
    Array.of_list (List.rev !acc)
  in
  let n = Array.length base in
  let path = Filename.temp_file "cccs_bench_stream" ".trc" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let t0 = mono_s () in
      let w = Ts.create path in
      let i = ref 0 in
      while Ts.visits_written w < stream_target_visits do
        Ts.add w base.(!i);
        i := if !i + 1 = n then 0 else !i + 1
      done;
      Ts.close w;
      let write_s = mono_s () -. t0 in
      let file_bytes = (Unix.stat path).Unix.st_size in
      let sch = Encoding.Full_huffman.build prog in
      let cfg = Fetch.Config.default in
      let att = Encoding.Att.build sch ~line_bits:cfg.Fetch.Config.line_bits prog in
      let sim iter_blocks =
        Fetch.Sim.run_iter ~model:Fetch.Config.Compressed ~cfg ~scheme:sch ~att
          iter_blocks
      in
      (* Direct in-memory replay of the same visit sequence: the oracle the
         streamed run must match bit for bit. *)
      let expect =
        sim (fun f ->
            let i = ref 0 in
            for _ = 1 to stream_target_visits do
              f base.(!i);
              i := if !i + 1 = n then 0 else !i + 1
            done)
      in
      Gc.compact ();
      let heap0 = (Gc.quick_stat ()).Gc.heap_words in
      let peak = ref heap0 in
      let visits = ref 0 in
      let t0 = mono_s () in
      let streamed =
        match
          Ts.with_blocks path ~f:(fun iter_blocks ->
              sim (fun f ->
                  iter_blocks (fun b ->
                      incr visits;
                      if !visits land 0xFFFF = 0 then
                        peak :=
                          max !peak (Gc.quick_stat ()).Gc.heap_words;
                      f b)))
        with
        | Ok r -> r
        | Error e -> failwith ("bench fuzz: " ^ Ts.error_to_string e)
      in
      let replay_s = mono_s () -. t0 in
      peak := max !peak (Gc.quick_stat ()).Gc.heap_words;
      let heap_delta = (!peak - heap0) * (Sys.word_size / 8) in
      let bounded = heap_delta <= stream_heap_cap_bytes in
      if !visits <> stream_target_visits then
        failwith "bench fuzz: streamed replay lost visits";
      if streamed <> expect then
        failwith "bench fuzz: streamed result differs from in-memory replay";
      Printf.printf
        "perf/stream/write    %d visits in %.2fs  (%.1f Mvisits/s, %d bytes)\n"
        stream_target_visits write_s
        (float_of_int stream_target_visits /. write_s /. 1e6)
        file_bytes;
      Printf.printf
        "perf/stream/replay   %d visits in %.2fs  (%.1f Mvisits/s)  heap \
         +%.1f MB (cap %d MB)%s\n%!"
        streamed.Fetch.Sim.block_visits replay_s
        (float_of_int stream_target_visits /. replay_s /. 1e6)
        (float_of_int heap_delta /. 1e6)
        (stream_heap_cap_bytes / 1024 / 1024)
        (if bounded then "" else "  ** OVER CAP **");
      if not bounded then
        failwith "bench fuzz: streaming replay heap grew past the cap";
      let open Cccs_obs.Json in
      [
        Obj
          [
            ("name", Str "perf/stream/write");
            ("visits", int stream_target_visits);
            ("seconds", Num write_s);
            ("visits_per_s", Num (float_of_int stream_target_visits /. write_s));
            ("file_bytes", int file_bytes);
          ];
        Obj
          [
            ("name", Str "perf/stream/replay");
            ("visits", int streamed.Fetch.Sim.block_visits);
            ("seconds", Num replay_s);
            ( "visits_per_s",
              Num (float_of_int stream_target_visits /. replay_s) );
            ("heap_peak_delta_bytes", int heap_delta);
            ("heap_cap_bytes", int stream_heap_cap_bytes);
            ("bounded", Bool bounded);
          ];
      ])

let run_fuzz_bench () =
  Printf.printf
    "CCCS fuzz — campaign throughput and streaming simulation\n%s\n"
    (String.make 68 '-');
  let campaign = bspan "fuzz_campaign" fuzz_campaign_row in
  let streams = bspan "stream" stream_rows in
  let rows = campaign :: streams in
  write_perf_rows ~prefixes:[ "perf/fuzz/"; "perf/stream/" ] rows;
  ledger_append ~kind:"bench_fuzz" rows

let () =
  let flame = flame_path () in
  let rc =
    match flame with
    | None -> None
    | Some _ -> Some (Cccs_obs.Recorder.create ())
  in
  (match rc with
  | Some rc -> flame_obs := Some (Cccs_obs.Recorder.sink rc)
  | None -> ());
  (if Array.exists (( = ) "fuzz") Sys.argv then
     bspan "fuzz" run_fuzz_bench
   else if Array.exists (( = ) "perf") Sys.argv then bspan "perf" run_perf
   else begin
     Format.printf
       "CCCS reproduction — Larin & Conte, MICRO-32 (1999)@.%s@.@."
       (String.make 78 '=');
     bspan "figures" (fun () -> Cccs.Report.all Format.std_formatter ());
     write_obs (bspan "bechamel" run_benchmarks)
   end);
  match (flame, rc) with
  | Some path, Some rc ->
      let nodes = Cccs_obs.Flame.of_recorder rc in
      Cccs_obs.Flame.write ~path nodes;
      Printf.printf "wrote flamegraph (%.1f ms instrumented) to %s\n"
        (Cccs_obs.Flame.total_us nodes /. 1e3)
        path
  | _ -> ()
