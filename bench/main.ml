(* Benchmark harness: `bench perf` times decode, image decode, fetch
   replay, compile, emulate, scheme build and the jobs=1 vs 4 sweep;
   `bench fuzz` the fuzz campaign and the bounded-memory trace stream;
   with no mode it runs both.  Each row is timed by [measure] on the
   monotonic clock and built by [row]; both modes write BENCH_perf.json.
   The paper's figures themselves are `cccs all` (see EXPERIMENTS.md). *)

(* ------------------------------------------------------------------ *)
(* Shared fixtures: one small SPEC-like program and one kernel.        *)
(* ------------------------------------------------------------------ *)

let load name =
  lazy (Cccs.Workload_run.load (Option.get (Workloads.Suite.find name)))

let fixture = load "compress"
let kernel = load "fir"

let program () = (Lazy.force fixture).Cccs.Workload_run.compiled.Cccs.Pipeline.program

(* ------------------------------------------------------------------ *)
(* Cross-run plumbing: the report writer and --flame spans.            *)
(* ------------------------------------------------------------------ *)

(* [write_rows path ~kind ?schemes rows] — write [rows] to [path] as one
   cccs-bench/1 report, and append them to the ledger as a [kind] entry
   (CCCS_LEDGER=off disables), so `cccs perfdiff` can compare consecutive
   runs.  `bench perf` and `bench fuzz` share BENCH_perf.json: a write
   replaces each row family ("decode" for "perf/decode/full") that [rows]
   bring and keeps the file's other families. *)
let write_rows path ~kind ?schemes rows =
  let open Cccs_obs.Json in
  let family r =
    match member "name" r with
    | Some (Str n) -> (
        match String.split_on_char '/' n with
        | "perf" :: f :: _ :: _ -> Some f
        | _ -> None)
    | _ -> None
  in
  let brought = List.filter_map family rows in
  let kept =
    match parse (In_channel.with_open_bin path In_channel.input_all) with
    | Ok j ->
        List.filter
          (fun r ->
            match family r with
            | Some f -> not (List.mem f brought)
            | None -> false)
          (Option.value ~default:[] (Option.bind (member "results" j) to_list))
    | Error _ | (exception Sys_error _) -> []
  in
  let j =
    Obj [ ("schema", Str "cccs-bench/1"); ("results", Arr (kept @ rows)) ]
  in
  Cccs_obs.Export.write_file path (to_string j ^ "\n");
  Printf.printf "wrote %d rows to %s (%d kept)\n" (List.length rows) path
    (List.length kept);
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

(* ------------------------------------------------------------------ *)
(* Timing and rows.                                                    *)
(* ------------------------------------------------------------------ *)

(* [measure ?n ?window ~check f] — [n] samples (default 3) of the seconds
   one call of [f] takes.  A sample repeats [f] until its calls have run
   for [window] seconds (default 0.2; one call when 0) and is their mean.
   Each call is timed alone on the monotonic clock, and its result goes
   to [check] off the clock, so every gate holds on every timed call. *)
let measure ?(n = 3) ?(window = 0.2) ~check f =
  List.init n (fun _ ->
      let calls = ref 0 and spent = ref 0.0 in
      while !calls = 0 || !spent < window do
        let t0 = Cccs_obs.Clock.now () in
        let r = f () in
        spent := !spent +. (Cccs_obs.Clock.now () -. t0);
        check r;
        incr calls
      done;
      !spent /. float_of_int !calls)

(* A [check] that every result equals the first. *)
let repeats what =
  let first = ref None in
  fun r ->
    if !first = None then first := Some r
    else if !first <> Some r then
      failwith ("bench: " ^ what ^ " changed on a later call")

(* The best sample: noise only ever slows a call down. *)
let fastest = List.fold_left Float.min infinity

(* [row ?rate name seconds fields] — the row "perf/NAME" over the
   [seconds] samples [measure] took, printed as it is built: headline,
   [fields], [cores], [samples].  The headline is [seconds], the fastest
   sample, or with [~rate:(metric, work)], where one call does [work] and
   [metric] is a rate of [Cccs_obs.Compare.metrics], [metric] at that
   call.  The samples are in the headline's unit, so the best one is the
   headline and perfdiff bootstraps like with like. *)
let row ?rate name seconds fields =
  let open Cccs_obs.Json in
  let best = fastest seconds in
  let headline, samples =
    match rate with
    | None -> ([ ("seconds", Num best) ], seconds)
    | Some (metric, work) ->
        ( [ (metric, Num (work /. best)); ("seconds", Num best) ],
          List.map (fun s -> work /. s) seconds )
  in
  let fields = headline @ fields in
  Printf.printf "perf/%-24s" name;
  List.iter
    (function
      | k, Num x when Float.is_integer x -> Printf.printf "  %s %.0f" k x
      | k, Num x -> Printf.printf "  %s %.4g" k x
      | k, v -> Printf.printf "  %s %s" k (to_string v))
    fields;
  print_newline ();
  Obj
    ((("name", Str ("perf/" ^ name)) :: fields)
    @ [
        ("cores", int (Cccs.Parallel.cores ()));
        ("samples", Arr (List.map (fun x -> Num x) samples));
      ])

(* [per item count seconds] — the fields of a row whose call works
   through [count] items: "ns_per_ITEM" at the fastest call and "ITEMs". *)
let per item count seconds =
  Cccs_obs.Json.
    [
      ("ns_per_" ^ item, Num (fastest seconds *. 1e9 /. float_of_int count));
      (item ^ "s", int count);
    ]

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

(* perf/decode: MB/s over the compressed payload for the table decoder,
   with the bit-serial and seed decoders alongside.  The untimed first
   pass triggers the table path's lazy LUT build, so table construction
   is not billed to decode time (it is amortized over a whole program
   image in real use), and gives the sum every timed pass must
   reproduce.  The three decoders run in five rounds of interleaved
   0.2 s windows, so a noise burst on a shared box cannot tax one
   decoder only; the table windows are the row's samples. *)
let decode_books =
  Encoding.[ ("full", Full_huffman.build); ("byte", Byte_huffman.build) ]

let perf_decode () =
  List.map
    (fun (scheme, build) ->
      let book = List.assoc scheme (build (program ())).Encoding.Scheme.books in
      let data, nsyms = symbol_stream book ~target_bits:(8 * 256 * 1024) in
      let seed_read = seed_decoder book in
      let expect = pass_table book data nsyms in
      let window pass =
        measure ~n:1
          ~check:(fun sum ->
            if sum <> expect then failwith "bench perf: decode mismatch")
          (fun () -> pass data nsyms)
      in
      let rounds =
        List.init 5 (fun _ ->
            List.map window
              [ pass_table book; pass_serial book; pass_seed seed_read ])
      in
      let decoder i = List.concat_map (fun r -> List.nth r i) rounds in
      let table = decoder 0 and serial = decoder 1 and seed = decoder 2 in
      let mb = float_of_int (String.length data) /. 1e6 in
      row ("decode/" ^ scheme) ~rate:("mb_per_s", mb) table
        Cccs_obs.Json.
          [
            ("serial_mb_per_s", Num (mb /. fastest serial));
            ("seed_mb_per_s", Num (mb /. fastest seed));
            ("speedup_vs_serial", Num (fastest serial /. fastest table));
            ("speedup_vs_seed", Num (fastest seed /. fastest table));
          ])
    decode_books

(* ------------------------------------------------------------------ *)
(* perf/image-decode: the whole-image decode behind `cccs decode`      *)
(* (Cccs.Par_decode.decode), end to end.  Three schemes — fixed widths *)
(* (base), unframed Huffman (full) and framed Huffman (full+crc16) —   *)
(* each checked byte-for-byte against the 40-bit baseline image on     *)
(* every call.  Set these rows against perf/decode/*, the Huffman      *)
(* kernel alone.                                                       *)
(* ------------------------------------------------------------------ *)

let perf_image_decode () =
  let prog = program () in
  let truth = Tepic.Program.baseline_image prog in
  let full = Encoding.Full_huffman.build prog in
  List.map
    (fun (name, sc) ->
      let check = function
        | Ok out when out = truth -> ()
        | Ok _ ->
            failwith
              (Printf.sprintf
                 "bench perf: image-decode %s diverged from the baseline image"
                 name)
        | Error e ->
            failwith
              ("bench perf: image-decode: "
              ^ Encoding.Scheme.decode_error_to_string e)
      in
      (* Compressed bytes through the decoder. *)
      let bytes = String.length sc.Encoding.Scheme.image in
      row ("image-decode/" ^ name)
        ~rate:("mb_per_s", float_of_int bytes /. 1e6)
        (measure ~check (fun () -> Cccs.Par_decode.decode sc))
        Cccs_obs.Json.
          [
            ("compressed_bytes", int bytes);
            ("decoded_bytes", int (String.length truth));
          ])
    [
      ("base", Encoding.Baseline.build prog);
      ("full", full);
      ("full+crc16", Encoding.Scheme.protect Encoding.Scheme.Crc16 full);
    ]

(* ------------------------------------------------------------------ *)
(* perf/fetch-sim: the three simulated Figure 13 fetch models, each   *)
(* replaying m88ksim's trace through the ATB, the line cache, the L0  *)
(* buffer and the bus.  Every replay must deliver exactly the ops the *)
(* trace executed and repeat the first replay's result.               *)
(* ------------------------------------------------------------------ *)

let perf_fetch_sim () =
  let r =
    Cccs.Workload_run.load (Option.get (Workloads.Suite.find "m88ksim"))
  in
  let executed =
    Emulator.Trace.total_ops r.Cccs.Workload_run.exec.Emulator.Exec.trace
  in
  List.filter_map
    (function
      | "ideal", _ -> None
      | name, run ->
          (* The untimed first replay also builds the model's ATT. *)
          let expect = run ?obs:None () in
          let check res =
            if res <> expect || res.Fetch.Sim.ops_delivered <> executed then
              failwith
                (Printf.sprintf
                   "bench perf: fetch-sim/%s delivered %d ops of %d executed"
                   name res.ops_delivered executed)
          in
          let visits = expect.Fetch.Sim.block_visits in
          let seconds = measure ~check (fun () -> run ?obs:None ()) in
          Some
            (row ("fetch-sim/" ^ name)
               ~rate:("visits_per_s", float_of_int visits)
               seconds
               (per "visit" visits seconds
               @ [ ("ops_delivered", Cccs_obs.Json.int executed) ])))
    (Cccs.Experiments.fetch_models r)

(* ------------------------------------------------------------------ *)
(* perf/compile, perf/emulate and perf/scheme-build: the layers every  *)
(* figure loads through, over the 13 suite programs one after another  *)
(* on one core.                                                        *)
(* ------------------------------------------------------------------ *)

let program_of r = r.Cccs.Workload_run.compiled.Cccs.Pipeline.program

let static_ops runs =
  List.fold_left (fun a r -> a + Tepic.Program.num_ops (program_of r)) 0 runs

(* perf/compile/suite: [Pipeline.compile] of each generated program,
   which must reproduce the loaded run's program; [ops] counts the ops
   compiled. *)
let perf_compile runs =
  let workloads = List.map Cccs.Workload_run.generate Workloads.Suite.all in
  let images = List.map Tepic.Program.baseline_image in
  let expect = images (List.map program_of runs) in
  let seconds =
    measure ~window:0.
      ~check:(fun progs ->
        if images progs <> expect then
          failwith
            "bench perf: compile/suite diverged from the loaded programs")
      (fun () ->
        List.map
          (fun w -> (Cccs.Pipeline.compile w).Cccs.Pipeline.program)
          workloads)
  in
  row "compile/suite" seconds (per "op" (static_ops runs) seconds)

(* perf/emulate/suite: [Exec.run] of each compiled program, which must
   reproduce the loaded run's trace and machine; [ops] counts the ops
   executed, and [minor_words_per_op] is what they allocate. *)
let perf_emulate runs =
  let summary (r : Emulator.Exec.result) =
    ( Emulator.Trace.length r.trace,
      Emulator.Trace.total_ops r.trace,
      Emulator.Machine.checksum r.machine )
  in
  let expect = List.map (fun r -> summary r.Cccs.Workload_run.exec) runs in
  let ops = List.fold_left (fun a (_, n, _) -> a + n) 0 expect in
  let words = ref 0.0 in
  let seconds =
    measure ~window:0.
      ~check:(fun results ->
        if List.map summary results <> expect then
          failwith "bench perf: emulate/suite diverged from the loaded runs")
      (fun () ->
        let words0 = Gc.minor_words () in
        let results =
          List.map
            (fun r -> Emulator.Exec.run ~max_blocks:3_000_000 (program_of r))
            runs
        in
        words := Gc.minor_words () -. words0;
        results)
  in
  row "emulate/suite" seconds
    (per "op" ops seconds
    @ Cccs_obs.Json.
        [ ("minor_words_per_op", Num (!words /. float_of_int ops)) ])

(* perf/scheme-build: every scheme builder, which must repeat its first
   images; the stream row builds all six configurations. *)
let perf_scheme_build runs =
  let image build r = [ (build (program_of r)).Encoding.Scheme.image ] in
  List.map
    (fun (name, build) ->
      let name = "scheme-build/" ^ name in
      let seconds =
        measure ~window:0. ~check:(repeats name) (fun () ->
            List.concat_map build runs)
      in
      row name seconds (per "op" (static_ops runs) seconds))
    [
      ("base", image Encoding.Baseline.build);
      ("byte", image Encoding.Byte_huffman.build);
      ( "stream",
        fun r ->
          List.concat_map
            (fun (_, config) -> image (Encoding.Stream_huffman.build ~config) r)
            Encoding.Stream_huffman.configs );
      ("full", image Encoding.Full_huffman.build);
      ("tailored", image Encoding.Tailored.build);
      ("dict", image Encoding.Dictionary.build);
    ]

(* The jobs=4 sweep may not cost more than this over jobs=1. *)
let never_lose_factor = 1.15

(* perf/sweep/jobs{1,4}: one cold-cache sweep is fig5 + fig13 for the
   whole SPEC set in a single Experiments.sweep, with both memos cleared
   first, so the parallel run duplicates no work against the sequential
   one.  Three alternating jobs=1 / jobs=4 pairs, so a noise burst cannot
   tax one side only, and every sweep must produce the first jobs=1
   sweep's rows.  The never-lose check runs only once the rows are
   printed, so a failed run still shows its numbers.  On a 1-core runner
   Parallel.map degrades jobs=4 to the sequential walk, so the jobs=4
   sweep may never lose to jobs=1 past noise. *)
let perf_sweep () =
  let check = repeats "the sweep" in
  let sweep jobs =
    measure ~n:1 ~window:0. ~check (fun () ->
        Cccs.Workload_run.clear_cache ();
        Cccs.Experiments.clear_cache ();
        Cccs.Experiments.(sweep ~jobs (fun r -> (fig5_for r, fig13_for r))))
  in
  let pairs =
    List.init 3 (fun _ ->
        let s1 = sweep 1 in
        (s1, sweep 4))
  in
  let s1 = List.concat_map fst pairs and s4 = List.concat_map snd pairs in
  let jobs1 = row "sweep/jobs1" s1 [] in
  let jobs4 =
    row "sweep/jobs4" s4
      [ ("speedup", Cccs_obs.Json.Num (fastest s1 /. fastest s4)) ]
  in
  if fastest s4 > (fastest s1 *. never_lose_factor) +. 0.1 then
    failwith
      (Printf.sprintf
         "bench perf: sweep jobs=4 (%.2fs) lost to jobs=1 (%.2fs) past the \
          %.2fx never-lose bound (%d cores)"
         (fastest s4) (fastest s1) never_lose_factor (Cccs.Parallel.cores ()));
  [ jobs1; jobs4 ]

let header title = Printf.printf "%s\n%s\n" title (String.make 68 '-')

let run_perf () =
  header
    "CCCS perf — decode, fetch replay, compile, emulate, scheme build and \
     sweep wall-clock";
  let decode = bspan "decode" perf_decode in
  let image = bspan "image-decode" perf_image_decode in
  let fetch = bspan "fetch-sim" perf_fetch_sim in
  let runs = List.map Cccs.Workload_run.load Workloads.Suite.all in
  let compile = bspan "compile" (fun () -> perf_compile runs) in
  let emulate = bspan "emulate" (fun () -> perf_emulate runs) in
  let build = bspan "scheme-build" (fun () -> perf_scheme_build runs) in
  let sweep = bspan "sweep" perf_sweep in
  write_rows "BENCH_perf.json" ~kind:"bench_perf"
    ~schemes:(List.map fst decode_books)
    (decode @ image @ fetch @ [ compile; emulate ] @ build @ sweep)

(* ------------------------------------------------------------------ *)
(* fuzz group: the differential fuzzing engine (cases/sec over a       *)
(* fixed-seed campaign) and the streaming trace path: a two-million-   *)
(* visit trace is written through Trace_stream and replayed through    *)
(* Fetch.Sim.run_iter without ever materializing the visit sequence.   *)
(* ------------------------------------------------------------------ *)

let stream_target_visits = 2_000_000
let stream_heap_cap_bytes = 32 * 1024 * 1024

let fuzz_campaign_row () =
  let spec = { Cccs_fuzz.Fuzz.default_spec with Cccs_fuzz.Fuzz.runs = 2000 } in
  let check (r : Cccs_fuzz.Fuzz.report) =
    if r.findings <> [] || r.tallies.cases <> spec.runs then
      failwith "bench fuzz: fixed-seed campaign produced findings"
  in
  row "fuzz/campaign"
    ~rate:("cases_per_s", float_of_int spec.runs)
    (measure ~window:0. ~check (fun () -> Cccs_fuzz.Fuzz.run spec))
    Cccs_obs.Json.[ ("cases", int spec.runs); ("findings", int 0) ]

let stream_rows () =
  let module Ts = Workloads.Trace_stream in
  let run_k = Lazy.force kernel in
  let prog = program_of run_k in
  (* fir's visits, repeated to the target length. *)
  let base =
    Emulator.Trace.to_array run_k.Cccs.Workload_run.exec.Emulator.Exec.trace
  in
  let n = Array.length base in
  let iter_visits f =
    let i = ref 0 in
    for _ = 1 to stream_target_visits do
      f base.(!i);
      i := if !i + 1 = n then 0 else !i + 1
    done
  in
  let path = Filename.temp_file "cccs_bench_stream" ".trc" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let write_s =
        measure ~window:0. ~check:ignore (fun () ->
            let w = Ts.create path in
            iter_visits (Ts.add w);
            Ts.close w)
      in
      let model, cfg = Fetch.Config.of_scheme "full" in
      let scheme = Encoding.Full_huffman.build prog in
      let att = Encoding.Att.build scheme ~line_bits:cfg.line_bits prog in
      let sim = Fetch.Sim.run_iter ~model ~cfg ~scheme ~att in
      (* Direct in-memory replay of the same visit sequence: the oracle
         every streamed replay must match bit for bit. *)
      let expect = sim iter_visits in
      (* Every streamed replay samples the heap every 65,536 visits: its
         growth over the compacted heap the first replay started from
         may not pass the cap. *)
      let heap_words () = (Gc.quick_stat ()).Gc.heap_words in
      Gc.compact ();
      let heap0 = heap_words () in
      let peak = ref heap0 in
      let grown () = (!peak - heap0) * (Sys.word_size / 8) in
      let replay () =
        let visits = ref 0 in
        let streamed =
          match
            Ts.with_blocks path ~f:(fun iter_blocks ->
                sim (fun f ->
                    iter_blocks (fun b ->
                        incr visits;
                        if !visits land 0xFFFF = 0 then
                          peak := max !peak (heap_words ());
                        f b)))
          with
          | Ok r -> r
          | Error e -> failwith ("bench fuzz: " ^ Ts.error_to_string e)
        in
        peak := max !peak (heap_words ());
        (streamed, !visits)
      in
      let check (streamed, visits) =
        if visits <> stream_target_visits then
          failwith "bench fuzz: streamed replay lost visits";
        if streamed <> expect then
          failwith "bench fuzz: streamed result differs from in-memory replay";
        if grown () > stream_heap_cap_bytes then
          failwith
            (Printf.sprintf
               "bench fuzz: streaming replay heap grew %.1f MB, past the %d MB \
                cap"
               (float_of_int (grown ()) /. 1e6)
               (stream_heap_cap_bytes / 1024 / 1024))
      in
      let replay_s = measure ~window:0. ~check replay in
      let visits = float_of_int stream_target_visits in
      let write =
        row "stream/write" ~rate:("visits_per_s", visits) write_s
          Cccs_obs.Json.
            [
              ("visits", int stream_target_visits);
              ("file_bytes", int (Unix.stat path).Unix.st_size);
            ]
      in
      [
        write;
        row "stream/replay" ~rate:("visits_per_s", visits) replay_s
          Cccs_obs.Json.
            [
              ("visits", int stream_target_visits);
              ("heap_peak_delta_bytes", int (grown ()));
              ("heap_cap_bytes", int stream_heap_cap_bytes);
              ("bounded", Bool true);
            ];
      ])

let run_fuzz_bench () =
  header "CCCS fuzz — campaign throughput and streaming simulation";
  let campaign = bspan "fuzz_campaign" fuzz_campaign_row in
  let streams = bspan "stream" stream_rows in
  write_rows "BENCH_perf.json" ~kind:"bench_fuzz" (campaign :: streams)

(* bench [perf|fuzz] [--flame FILE | --flame=FILE] *)
let mode, flame =
  let usage () =
    prerr_endline "usage: bench [perf|fuzz] [--flame FILE | --flame=FILE]";
    exit 124
  in
  let rec parse mode flame = function
    | [] -> (mode, flame)
    | (("perf" | "fuzz") as m) :: rest when mode = None ->
        parse (Some m) flame rest
    | "--flame" :: file :: rest when flame = None -> parse mode (Some file) rest
    | a :: rest
      when flame = None
           && String.length a > 8
           && String.starts_with ~prefix:"--flame=" a ->
        parse mode (Some (String.sub a 8 (String.length a - 8))) rest
    | _ -> usage ()
  in
  parse None None (List.tl (Array.to_list Sys.argv))

let () =
  let rc = Option.map (fun _ -> Cccs_obs.Recorder.create ()) flame in
  flame_obs := Option.map Cccs_obs.Recorder.sink rc;
  if mode <> Some "fuzz" then bspan "perf" run_perf;
  if mode <> Some "perf" then bspan "fuzz" run_fuzz_bench;
  match (flame, rc) with
  | Some path, Some rc ->
      let events = Cccs_obs.Recorder.events rc in
      let nodes = Cccs_obs.Flame.of_events events in
      Cccs_obs.Flame.write ~path events;
      Printf.printf "wrote flamegraph (%.1f ms instrumented) to %s\n"
        (Cccs_obs.Flame.total_us nodes /. 1e3)
        path
  | _ -> ()
