(* cccs — command-line driver for the code-compression study.

   Subcommands: list, compile, compress, decode, simulate, decoder, trace,
   verify, lint, validate, certify, wcet, faults, fuzz, perfdiff, disasm,
   stats, export, and the per-figure experiment reproductions (fig5..fig14,
   all).

   Every subcommand keeps one contract (README, "Command-line contract"):
   exit 0 when the run is ok, 1 on a failed verdict, 2 when an input file
   or the ledger cannot be read, and cmdliner's 124 for a rejected command
   line; under --json, stdout carries one object that opens with [schema]
   and [ok], and the human-readable report moves to stderr. *)

open Cmdliner
module Json = Cccs_obs.Json
module Diag = Cccs.Analysis.Diag

(* Every subcommand threads this first: it installs the Logs reporter on
   stderr and wires the standard -v / -q / --verbosity flags. *)
let setup_logs =
  let init style_renderer level =
    Fmt_tty.setup_std_outputs ?style_renderer ();
    Logs.set_level level;
    Logs.set_reporter (Logs_fmt.reporter ())
  in
  Term.(const init $ Fmt_cli.style_renderer () $ Logs_cli.level ())

(* ------------------------------------------------------------------ *)
(* Arguments shared by several subcommands.                           *)
(* ------------------------------------------------------------------ *)

let workload =
  Arg.enum
    (List.map
       (fun (e : Workloads.Suite.entry) -> (e.name, e))
       Workloads.Suite.all)

let bench_arg =
  let doc = "Workload name (see `cccs list`)." in
  Arg.(required & pos 0 (some workload) None & info [] ~docv:"BENCH" ~doc)

(* BENCH or --all: the workloads a verifier sweeps.  [unless] is a flag
   that needs neither (lint --passes). *)
let workloads_arg ?(unless = Term.const false) verb =
  let bench =
    let doc = "Workload name (see `cccs list`).  Omit with $(b,--all)." in
    Arg.(value & pos 0 (some workload) None & info [] ~docv:"BENCH" ~doc)
  in
  let all =
    let doc = verb ^ " every workload in the suite." in
    Arg.(value & flag & info [ "all" ] ~doc)
  in
  let pick skip bench all =
    match (bench, all) with
    | _, true -> `Ok Workloads.Suite.all
    | Some e, false -> `Ok [ e ]
    | None, false when skip -> `Ok []
    | None, false -> `Error (true, "give a BENCH or --all")
  in
  Term.(ret (const pick $ unless $ bench $ all))

(* A number below [min] is a rejected command line, like any other
   malformed value. *)
let at_least conv min ~expected =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when v < min ->
        Error
          (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer conv)

let count = at_least Arg.int 0 ~expected:"a non-negative integer"

let jobs_arg doc =
  let jobs = at_least Arg.int 1 ~expected:"a positive integer" in
  Arg.(value & opt (some jobs) None & info [ "jobs" ] ~docv:"N" ~doc)

let protections =
  List.map
    (fun p -> (Encoding.Scheme.protection_name p, p))
    Encoding.Scheme.[ Unprotected; Crc8; Crc16 ]

let json_arg schema =
  let doc =
    Printf.sprintf
      "Emit one machine-readable JSON object (schema $(b,%s)) on stdout; the \
       human-readable report moves to stderr."
      schema
  in
  Arg.(value & flag & info [ "json" ] ~doc)

let flame_arg =
  let doc =
    "Write a collapsed-stack flamegraph of the pipeline stage spans to \
     $(docv) (self time per frame, integer microseconds; a $(b,.json) \
     suffix writes Chrome trace-event / Perfetto JSON instead)."
  in
  Arg.(value & opt (some string) None & info [ "flame" ] ~docv:"FILE" ~doc)

let perfetto_arg =
  let doc =
    "Also write a Chrome trace-event / Perfetto JSON timeline to $(docv) \
     (load it in ui.perfetto.dev or chrome://tracing)."
  in
  Arg.(value & opt (some string) None & info [ "perfetto" ] ~docv:"FILE" ~doc)

(* ------------------------------------------------------------------ *)
(* Plumbing shared by the reporting subcommands.                      *)
(* ------------------------------------------------------------------ *)

(* Run [f] with a span recorder's sink when --flame names a file, then
   write the recorded spans there. *)
let with_flame path f =
  match path with
  | None -> f None
  | Some path ->
      let rc = Cccs_obs.Recorder.create () in
      let res = f (Some (Cccs_obs.Recorder.sink rc)) in
      let nodes = Cccs_obs.Flame.of_recorder rc in
      Cccs_obs.Flame.write ~path nodes;
      Logs.app (fun m ->
          m "wrote flamegraph (%d root span(s), %.1f ms instrumented) to %s"
            (List.length nodes)
            (Cccs_obs.Flame.total_us nodes /. 1e3)
            path);
      res

(* The human-readable report: stdout, or stderr under --json so that
   stdout carries exactly one JSON object. *)
let report_to json = if json then Format.err_formatter else Format.std_formatter

(* The end of a reporting subcommand: under --json one object that opens
   with [schema] and [ok], then exit 0 when [ok] (always, when [gate] is
   off), else 1. *)
let finish ?(gate = true) ~json ~schema ~ok fields =
  if json then
    print_endline
      (Json.to_string
         (Json.Obj
            (("schema", Json.Str schema) :: ("ok", Json.Bool ok) :: fields)));
  exit (if ok || not gate then 0 else 1)

(* An input file or the ledger cannot be read, or holds nothing usable:
   report it and exit 2. *)
let unreadable fmt =
  Format.kasprintf
    (fun msg ->
      Logs.err (fun m -> m "%s" msg);
      exit 2)
    fmt

(* A file named on the command line. *)
let read_file ~what path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error msg -> unreadable "%s: %s" what msg

let ledger_append ~kind ~jobs ?schemes ~meta rows =
  Cccs_obs.Ledger.record ~kind ~timestamp:(Unix.gettimeofday ())
    ~cores:(Cccs.Parallel.cores ()) ~jobs ?schemes ~meta rows
  |> Result.iter_error (fun msg -> Logs.warn (fun m -> m "ledger: %s" msg))

(* Shared JSON shape of one diagnostic. *)
let diag_json (d : Diag.t) =
  let open Json in
  let opt f = function None -> Null | Some v -> f v in
  Obj
    [
      ("code", Str d.Diag.code);
      ("severity", Str (Format.asprintf "%a" Diag.pp_severity d.Diag.severity));
      ("workload", Str d.Diag.loc.Diag.workload);
      ("scheme", opt (fun s -> Str s) d.Diag.loc.Diag.scheme);
      ("block", opt int d.Diag.loc.Diag.block);
      ("inst", opt int d.Diag.loc.Diag.inst);
      ("bit", opt int d.Diag.loc.Diag.bit);
      ("message", Str d.Diag.message);
    ]

(* The driver of lint, validate, certify and wcet.  [check out note r]
   reports one workload on [out], hands its diagnostics to [note] and
   returns its per-scheme JSON; [note] collects them and prints those
   [shown] selects.  The driver owns the workload loop, the collector, the
   verdict line ([verdict] = (command, word when clean); lint prints the
   bare counts), the error and warning counts and the exit.  [body] turns
   the workloads' JSON and the collector into the report's trailing
   fields. *)
let diagnose ~json ~schema ?verdict
    ?(body = fun workloads _ -> [ ("workloads", Json.Arr workloads) ])
    entries check =
  let out = report_to json in
  let c = Diag.Collector.create () in
  let note ?(shown = fun _ -> true) diags =
    Diag.Collector.add_list c diags;
    List.iter
      (fun d -> if shown d then Format.fprintf out "%s@." (Diag.to_string d))
      diags
  in
  let workloads =
    List.map
      (fun e ->
        let r = Cccs.Workload_run.load e in
        Json.Obj
          [
            ("name", Json.Str r.Cccs.Workload_run.name);
            ("schemes", Json.Arr (check out note r));
          ])
      entries
  in
  let ok = Diag.Collector.exit_status c = 0 in
  (match verdict with
  | None -> Format.fprintf out "%a@." Diag.Collector.pp_summary c
  | Some (cmd, word) ->
      Format.fprintf out "%s: %s (%a)@." cmd
        (if ok then word else "FAILED")
        Diag.Collector.pp_summary c);
  finish ~json ~schema ~ok
    ([
       ("errors", Json.int (Diag.Collector.errors c));
       ("warnings", Json.int (Diag.Collector.warnings c));
     ]
    @ body workloads c)

(* ------------------------------------------------------------------ *)
(* Subcommands.                                                        *)
(* ------------------------------------------------------------------ *)

let list_cmd =
  let run (() : unit) () =
    List.iter
      (fun (e : Workloads.Suite.entry) ->
        Printf.printf "%-14s %s\n" e.name
          (match e.kind with
          | `Spec -> "SPECint95-like synthetic program"
          | `Kernel -> "hand-written DSP kernel"))
      Workloads.Suite.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List available workloads")
    Term.(const run $ setup_logs $ const ())

let compile_cmd =
  let run () e flame =
    with_flame flame (fun obs ->
        let r = Cccs.Workload_run.load ?obs e in
        let c = r.Cccs.Workload_run.compiled in
        let prog = c.Cccs.Pipeline.program in
        Printf.printf "workload      %s\n" r.Cccs.Workload_run.name;
        Printf.printf "blocks        %d\n" (Tepic.Program.num_blocks prog);
        Printf.printf "static ops    %d\n" (Tepic.Program.num_ops prog);
        Printf.printf "static MOPs   %d\n" (Tepic.Program.num_mops prog);
        Printf.printf "schedule ILP  %.2f ops/cycle\n" c.Cccs.Pipeline.ilp;
        Printf.printf "speculated    %d ops\n" c.Cccs.Pipeline.hoisted;
        Printf.printf "spill slots   %d\n" c.Cccs.Pipeline.spill_slots;
        List.iter
          (fun (cls, peak) ->
            Printf.printf "peak live %s   %d\n" (Tepic.Reg.cls_to_string cls)
              peak)
          c.Cccs.Pipeline.max_live;
        Printf.printf "executed ops  %d\n"
          (Emulator.Trace.total_ops
             r.Cccs.Workload_run.exec.Emulator.Exec.trace);
        Printf.printf "block visits  %d\n"
          (Emulator.Trace.length r.Cccs.Workload_run.exec.Emulator.Exec.trace))
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile and execute a workload; print statistics")
    Term.(const run $ setup_logs $ bench_arg $ flame_arg)

let compress_cmd =
  let run () e =
    let s = Cccs.Experiments.schemes_of (Cccs.Workload_run.load e) in
    let base_bits = s.Cccs.Experiments.base.Encoding.Scheme.code_bits in
    Printf.printf "%-10s %10s %10s %8s %12s\n" "scheme" "code-bits" "table-bits"
      "ratio" "transistors";
    List.iter
      (fun (_, (sc : Encoding.Scheme.t)) ->
        Printf.printf "%-10s %10d %10d %8.3f %12d\n" sc.Encoding.Scheme.name
          sc.Encoding.Scheme.code_bits sc.Encoding.Scheme.table_bits
          (Encoding.Scheme.ratio sc ~baseline_bits:base_bits)
          sc.Encoding.Scheme.decoder.Encoding.Scheme.transistors)
      (Cccs.Experiments.every_scheme s)
  in
  Cmd.v
    (Cmd.info "compress" ~doc:"Build every encoding scheme for a workload")
    Term.(const run $ setup_logs $ bench_arg)

let decode_cmd =
  let scheme_arg =
    (* The names of [Experiments.every_scheme], in its order. *)
    let names =
      ("base" :: "byte" :: List.map fst Encoding.Stream_huffman.configs)
      @ [ "full"; "tailored"; "dict" ]
    in
    let doc =
      "Scheme to decode: $(b,base), $(b,byte), $(b,stream*), $(b,full), \
       $(b,tailored) or $(b,dict) (see `cccs compress BENCH`)."
    in
    Arg.(
      value
      & opt (enum (List.map (fun n -> (n, n)) names)) "full"
      & info [ "scheme" ] ~docv:"NAME" ~doc)
  in
  let protect_arg =
    let doc =
      "Wrap the scheme in protected block framing first: $(b,none), \
       $(b,crc8) or $(b,crc16).  Each block then carries a length field \
       and a CRC guard word that the decode checks."
    in
    Arg.(
      value
      & opt (enum protections) Encoding.Scheme.Unprotected
      & info [ "protect" ] ~docv:"MODE" ~doc)
  in
  let out_arg =
    let doc = "Write the decoded 40-bit baseline image to $(docv)." in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let run () (e : Workloads.Suite.entry) scheme protect out json flame =
    let r = Cccs.Workload_run.load e in
    let sc =
      Encoding.Scheme.protect protect
        (List.assoc scheme
           (Cccs.Experiments.every_scheme (Cccs.Experiments.schemes_of r)))
    in
    let truth =
      Tepic.Program.baseline_image
        r.Cccs.Workload_run.compiled.Cccs.Pipeline.program
    in
    let decoded =
      with_flame flame (fun obs ->
          let t0 = Unix.gettimeofday () in
          Cccs.Par_decode.decode ?obs sc
          |> Result.map (fun d -> (d, Unix.gettimeofday () -. t0)))
    in
    match decoded with
    | Error err ->
        Logs.err (fun m ->
            m "decode: %s" (Encoding.Scheme.decode_error_to_string err));
        exit 1
    | Ok (img, seconds) ->
        let exact = String.equal img truth in
        let compressed = String.length sc.Encoding.Scheme.image in
        let mb_per_s =
          if seconds > 0.0 then float_of_int compressed /. seconds /. 1e6
          else 0.0
        in
        Option.iter
          (fun path ->
            Out_channel.with_open_bin path (fun oc -> output_string oc img))
          out;
        let ppf = report_to json in
        Format.fprintf ppf "workload       %s@." e.name;
        Format.fprintf ppf "scheme         %s@." sc.Encoding.Scheme.name;
        Format.fprintf ppf "decoded        %d bytes from %d compressed (%s)@."
          (String.length img) compressed
          (if exact then "bit-exact vs baseline" else "MISMATCH");
        Format.fprintf ppf "throughput     %.2f MB/s compressed (%.4fs)@."
          mb_per_s seconds;
        finish ~json ~schema:"cccs-decode/1" ~ok:exact
          Json.
            [
              ("bench", Str e.name);
              ("scheme", Str sc.Encoding.Scheme.name);
              ("protection", Str (Encoding.Scheme.protection_name protect));
              ("compressed_bytes", int compressed);
              ("decoded_bytes", int (String.length img));
              ("exact", Bool exact);
              ("seconds", Num seconds);
              ("mb_per_s", Num mb_per_s);
            ]
  in
  Cmd.v
    (Cmd.info "decode"
       ~doc:
         "Decompress one scheme's ROM image back to the 40-bit baseline \
          image, block by block at the offsets of its address translation \
          table; verifies bit-exactness against the baseline")
    Term.(
      const run $ setup_logs $ bench_arg $ scheme_arg $ protect_arg $ out_arg
      $ json_arg "cccs-decode/1" $ flame_arg)

let simulate_cmd =
  let run () e perfetto flame =
    (* The flame recorder sees only stage spans: the compile pipeline's
       (via load ~obs) plus one Simulate span per fetch model — not the
       per-event fetch stream, which has its own --perfetto recorders, one
       per model, so the export shows the four models as separate named
       processes. *)
    with_flame flame (fun fobs ->
        let r = Cccs.Workload_run.load ?obs:fobs e in
        let runs =
          List.map
            (fun (name, model) ->
              let run () =
                match perfetto with
                | None -> (model ?obs:None (), None)
                | Some _ ->
                    let rc = Cccs_obs.Recorder.create () in
                    let obs = Cccs_obs.Recorder.sink rc in
                    let res = model ?obs:(Some obs) () in
                    (res, Some (name, Cccs_obs.Recorder.events rc))
              in
              match fobs with
              | None -> run ()
              | Some obs ->
                  Cccs_obs.Sink.timed ~obs ~stage:Cccs_obs.Event.Simulate
                    ~label:name run)
            (Cccs.Experiments.fetch_models r)
        in
        List.iter (fun (res, _) -> Format.printf "%a@." Fetch.Sim.pp res) runs;
        Option.iter
          (fun path ->
            Cccs_obs.Export.write_file path
              (Json.to_string
                 (Cccs_obs.Export.chrome_trace (List.filter_map snd runs)));
            Logs.app (fun m -> m "wrote Perfetto trace to %s" path))
          perfetto)
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run the four fetch models on a workload")
    Term.(const run $ setup_logs $ bench_arg $ perfetto_arg $ flame_arg)

let decoder_cmd =
  let kind_arg =
    let doc = "Decoder to emit: tailored | full | byte." in
    Arg.(
      value
      & opt
          (enum (List.map (fun k -> (k, k)) [ "tailored"; "full"; "byte" ]))
          "tailored"
      & info [ "kind" ] ~doc)
  in
  let run () (e : Workloads.Suite.entry) kind =
    let s = Cccs.Experiments.schemes_of (Cccs.Workload_run.load e) in
    print_string
      (match kind with
      | "tailored" ->
          Encoding.Decoder_gen.tailored_decoder
            ~module_name:(e.name ^ "_tailored_decoder")
            s.Cccs.Experiments.tailored_spec
      | kind ->
          (* full or byte: the scheme's codebook as a dictionary ROM. *)
          let sc =
            if kind = "full" then s.Cccs.Experiments.full
            else s.Cccs.Experiments.byte
          in
          Encoding.Decoder_gen.huffman_tables
            ~module_name:(e.name ^ "_" ^ kind ^ "_dict")
            (List.assoc kind sc.Encoding.Scheme.books))
  in
  Cmd.v
    (Cmd.info "decoder" ~doc:"Emit the Verilog decoder for a workload")
    Term.(const run $ setup_logs $ bench_arg $ kind_arg)

let trace_cmd =
  let path_arg =
    let doc = "Output path for the trace file." in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"PATH" ~doc)
  in
  let run () e path perfetto =
    let r =
      match perfetto with
      | None -> Cccs.Workload_run.load e
      | Some p ->
          (* Instrument the whole lower→compile→execute pipeline and dump
             the stage spans as a Perfetto timeline. *)
          let rc = Cccs_obs.Recorder.create () in
          let r = Cccs.Workload_run.load ~obs:(Cccs_obs.Recorder.sink rc) e in
          Cccs_obs.Export.write_file p
            (Json.to_string
               (Cccs_obs.Export.chrome_trace
                  [ ("pipeline", Cccs_obs.Recorder.events rc) ]));
          Logs.app (fun m -> m "wrote Perfetto span trace to %s" p);
          r
    in
    let t = r.Cccs.Workload_run.exec.Emulator.Exec.trace in
    Emulator.Trace.save t path;
    Printf.printf "wrote %d block visits (%d ops) to %s\n"
      (Emulator.Trace.length t) (Emulator.Trace.total_ops t) path
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Execute a workload and save its block-address trace to a file")
    Term.(const run $ setup_logs $ bench_arg $ path_arg $ perfetto_arg)

let verify_cmd =
  let run () e =
    let v = Cccs.Experiments.verify (Cccs.Workload_run.load e) in
    let status ok = if ok then "OK" else "MISMATCH" in
    List.iter
      (fun (name, ok) ->
        Printf.printf "scheme %-10s decode-back %s\n" name (status ok))
      v.Cccs.Experiments.decode_back;
    Printf.printf "differential memory  %s\n"
      (status v.Cccs.Experiments.memory_ok);
    Printf.printf "differential trace   %s\n"
      (status v.Cccs.Experiments.trace_ok);
    if
      not
        (v.Cccs.Experiments.memory_ok && v.Cccs.Experiments.trace_ok
        && List.for_all snd v.Cccs.Experiments.decode_back)
    then exit 1
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Differentially verify one workload (scheduled vs sequential \
          semantics) and decode-check every scheme")
    Term.(const run $ setup_logs $ bench_arg)

let lint_cmd =
  let pass_arg =
    let pass =
      Arg.enum
        (List.map
           (fun ((module P : Cccs.Analysis.Pass.S) as p) -> (P.name, p))
           Cccs.Analysis.passes)
    in
    let doc = "Run only the named pass (see `cccs lint --passes`)." in
    Arg.(value & opt (some pass) None & info [ "pass" ] ~docv:"PASS" ~doc)
  in
  let passes_arg =
    let doc = "List the registered analysis passes and exit." in
    Arg.(value & flag & info [ "passes" ] ~doc)
  in
  let run () entries pass list_passes json =
    if list_passes then begin
      List.iter
        (fun (name, doc) -> Printf.printf "%-16s %s\n" name doc)
        Cccs.Analysis.pass_names;
      exit 0
    end;
    diagnose ~json ~schema:"cccs-lint/1"
      ~body:(fun _ c ->
        [ ("diags", Json.Arr (List.map diag_json (Diag.Collector.diags c))) ])
      entries
      (fun _ note r ->
        let target = Cccs.Analysis.target_of_run r in
        note
          (match pass with
          | None -> Cccs.Analysis.run_all target
          | Some (module P : Cccs.Analysis.Pass.S) -> P.run target);
        [])
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the whole-pipeline static verifier (dataflow, schedule, \
          encoding, decoder, image and certification checks) on one \
          workload or the whole suite")
    Term.(
      const run $ setup_logs
      $ workloads_arg ~unless:passes_arg "Lint"
      $ pass_arg $ passes_arg $ json_arg "cccs-lint/1")

let validate_cmd =
  let resync_arg =
    let doc =
      "Blocks per scheme to put through the single-bit-flip \
       resynchronization-distance analysis (0 disables it)."
    in
    Arg.(value & opt count 4 & info [ "resync-blocks" ] ~docv:"N" ~doc)
  in
  let run () entries json resync_blocks =
    diagnose ~json ~schema:"cccs-validate/1" ~verdict:("validate", "clean")
      entries (fun out note r ->
        let t = Cccs.Analysis.target_of_run r in
        let workload = t.Cccs.Analysis.Pass.workload in
        let program = r.Cccs.Workload_run.compiled.Cccs.Pipeline.program in
        Format.fprintf out "%s:@." workload;
        List.map
          (fun (sc : Encoding.Scheme.t) ->
            let t0 = Unix.gettimeofday () in
            let diags, summary =
              Cccs.Analysis.Image_check.check_scheme ~workload ~program
                ?tailored:t.Cccs.Analysis.Pass.tailored ~resync_blocks sc
            in
            let seconds = Unix.gettimeofday () -. t0 in
            note diags;
            let open Cccs.Analysis.Image_check in
            Format.fprintf out
              "  %-10s %3d blocks %5d ops  %d error(s) %d warning(s)%s %.3fs@."
              sc.Encoding.Scheme.name summary.blocks summary.ops summary.errors
              summary.warnings
              (match summary.resync with
              | Some rs ->
                  Printf.sprintf "  resync worst %d cw, %d/%d silent"
                    rs.max_distance rs.silent_flips rs.flips_analyzed
              | None -> "")
              seconds;
            let open Json in
            Obj
              [
                ("name", Str sc.Encoding.Scheme.name);
                ("blocks", int summary.blocks);
                ("ops", int summary.ops);
                ("errors", int summary.errors);
                ("warnings", int summary.warnings);
                ( "resync",
                  match summary.resync with
                  | None -> Null
                  | Some rs ->
                      Obj
                        [
                          ("blocks_analyzed", int rs.blocks_analyzed);
                          ("flips_analyzed", int rs.flips_analyzed);
                          ("silent_flips", int rs.silent_flips);
                          ("max_distance", int rs.max_distance);
                          ("worst_block", int rs.worst_block);
                        ] );
                ("seconds", Num seconds);
                ("diags", Arr (List.map diag_json diags));
              ])
          t.Cccs.Analysis.Pass.schemes)
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Re-decode every scheme's ROM image with an independent abstract \
          decoder (published tables only), recover block boundaries and the \
          CFG, and check round-trip, ATB mappability, dense-map ranges, \
          frame guards and resynchronization distance")
    Term.(
      const run $ setup_logs $ workloads_arg "Validate"
      $ json_arg "cccs-validate/1" $ resync_arg)

let certify_cmd =
  let run () entries json =
    let opt_int = function None -> Json.Null | Some v -> Json.int v in
    diagnose ~json ~schema:"cccs-certify/1" ~verdict:("certify", "certified")
      entries (fun out note r ->
        let t = Cccs.Analysis.target_of_run r in
        let workload = t.Cccs.Analysis.Pass.workload in
        Format.fprintf out "%s:@." workload;
        List.map
          (fun (sc : Encoding.Scheme.t) ->
            let diags, cert =
              Cccs.Analysis.Certify.certify_scheme ~workload
                ?program:t.Cccs.Analysis.Pass.program sc
            in
            note diags;
            let open Cccs.Analysis.Certify in
            Format.fprintf out
              "  %-10s %s  %d book(s)  worst op %s bits, worst block %d/%s \
               bits@."
              cert.scheme
              (if cert.ok then "certified" else "FAILED")
              (List.length cert.books)
              (match cert.worst_op_bits with
              | Some w -> string_of_int w
              | None -> "-")
              cert.worst_block_bits
              (match cert.worst_block_bound with
              | Some b -> string_of_int b
              | None -> "-");
            List.iter
              (fun b ->
                Format.fprintf out
                  "    book %-10s %5d syms  dfa %5d states  lut %5d+%-5d  \
                   resync %s  syncword %s@."
                  b.book b.symbols b.dfa_states b.lut_root_checked
                  b.lut_sub_checked
                  (match b.resync_bits with
                  | Some n -> string_of_int n ^ " bits"
                  | None -> "unbounded")
                  (match b.sync_word_bits with
                  | Some n -> "<=" ^ string_of_int n ^ " bits"
                  | None -> "none"))
              cert.books;
            let open Json in
            Obj
              [
                ("name", Str cert.scheme);
                ("ok", Bool cert.ok);
                ("errors", int cert.errors);
                ("warnings", int cert.warnings);
                ("worst_op_bits", opt_int cert.worst_op_bits);
                ("worst_block_bits", int cert.worst_block_bits);
                ("worst_block_bound", opt_int cert.worst_block_bound);
                ("blocks_checked", int cert.blocks_checked);
                ( "books",
                  Arr
                    (List.map
                       (fun b ->
                         Obj
                           [
                             ("book", Str b.book);
                             ("symbols", int b.symbols);
                             ("max_code_len", int b.max_code_len);
                             ("dfa_states", int b.dfa_states);
                             ("complete", Bool b.complete);
                             ("worst_bits", int b.worst_bits);
                             ("lut_root_checked", int b.lut_root_checked);
                             ("lut_sub_checked", int b.lut_sub_checked);
                             ("recoverable", Bool b.recoverable);
                             ("resync_bits", opt_int b.resync_bits);
                             ("sync_word_bits", opt_int b.sync_word_bits);
                           ])
                       cert.books) );
                ("diags", Arr (List.map diag_json diags));
              ])
          t.Cccs.Analysis.Pass.schemes)
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:
         "Prove decoder properties by exhaustive enumeration over each \
          published codebook's decode automaton: decode totality, \
          bit-exact Huffman LUT equivalence, resynchronization bounds, \
          and certified worst-case block sizes from each scheme's decode \
          model")
    Term.(
      const run $ setup_logs $ workloads_arg "Certify"
      $ json_arg "cccs-certify/1")

let wcet_cmd =
  let run () entries json =
    diagnose ~json ~schema:"cccs-wcet/1" ~verdict:("wcet", "bounded") entries
      (fun out note r ->
        let results = Cccs.Analysis.wcet_run r in
        let rows =
          List.filter_map
            (fun (diags, w) ->
              note ~shown:Diag.is_error diags;
              w)
            results
        in
        Cccs.Report.wcet out [ (r.Cccs.Workload_run.name, rows) ];
        List.map
          (fun (diags, w) ->
            let open Json in
            let fields =
              match w with
              | None -> [ ("bound", Null) ]
              | Some (w : Cccs.Analysis.Timing_check.wcet) ->
                  let open Cccs.Analysis.Timing_check in
                  [
                    ("name", Str w.scheme);
                    ("model", Str (model_name w.model));
                    ("bound", int w.bound);
                    ( "sim_cycles",
                      match w.sim_cycles with Some n -> int n | None -> Null );
                    ( "ratio",
                      match w.ratio with Some f -> Num f | None -> Null );
                    ("blocks", int w.blocks);
                    ("reachable", int w.reachable);
                    ("always_hit", int w.always_hit);
                    ("always_miss", int w.always_miss);
                    ("unclassified", int w.unclassified);
                    ("atb_always_hit", int w.atb_always_hit);
                    ("charged_visits", int w.charged_visits);
                    ("trace_bounds", Bool w.trace_bounds);
                  ]
            in
            Obj (fields @ [ ("diags", Arr (List.map diag_json diags)) ]))
          results)
  in
  Cmd.v
    (Cmd.info "wcet"
       ~doc:
         "Static WCET fetch-timing analysis: must/may cache abstract \
          interpretation over each scheme's recovered CFG, cycle bounds \
          charged from Table 1, and a simulator replay that must observe \
          cycles within the bound")
    Term.(
      const run $ setup_logs $ workloads_arg "Analyze" $ json_arg "cccs-wcet/1")

let faults_cmd =
  let flips_arg =
    let doc = "Single-bit-flip trials per surface per scheme." in
    Arg.(value & opt count 64 & info [ "flips" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc = "Campaign seed (deterministic xorshift stream)." in
    Arg.(value & opt int 1999 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let retries_arg =
    let doc = "Recovery refetch attempts before a machine check." in
    Arg.(value & opt count 2 & info [ "retries" ] ~docv:"K" ~doc)
  in
  let protect_arg =
    let doc =
      "Protection mode: $(b,none), $(b,crc8), $(b,crc16), or $(b,both) \
       (unprotected and crc8 side by side)."
    in
    let modes =
      List.map (fun (name, p) -> (name, [ p ])) protections
      @ [ ("both", Encoding.Scheme.[ Unprotected; Crc8 ]) ]
    in
    Arg.(
      value
      & opt (enum modes) Encoding.Scheme.[ Unprotected; Crc8 ]
      & info [ "protect" ] ~docv:"MODE" ~doc)
  in
  let counts_json (c : Cccs.Faults.counts) =
    let open Json in
    Obj
      [
        ("injected", int c.Cccs.Faults.injected);
        ("detected", int c.Cccs.Faults.detected);
        ("corrected", int c.Cccs.Faults.corrected);
        ("silent", int c.Cccs.Faults.silent);
        ("benign", int c.Cccs.Faults.benign);
        ("machine_checks", int c.Cccs.Faults.machine_checks);
        ("recovery_cycles", int c.Cccs.Faults.recovery_cycles);
      ]
  in
  let run () (e : Workloads.Suite.entry) flips seed retries protections jobs
      json =
    let bench = e.name in
    let jobs = Option.value jobs ~default:(Cccs.Parallel.default_jobs ()) in
    let campaigns =
      List.map
        (fun protection ->
          let t =
            Cccs.Faults.run ~jobs
              { Cccs.Faults.bench; seed; flips; retries; protection }
          in
          Cccs.Report.faults (report_to json) t;
          t)
        protections
    in
    let rows =
      List.concat_map (fun (t : Cccs.Faults.t) -> t.Cccs.Faults.rows) campaigns
    in
    let protection_name (r : Cccs.Faults.scheme_report) =
      Encoding.Scheme.protection_name r.Cccs.Faults.protection
    in
    let protected_silent =
      List.fold_left
        (fun acc (r : Cccs.Faults.scheme_report) ->
          if r.Cccs.Faults.protection = Encoding.Scheme.Unprotected then acc
          else acc + Cccs.Faults.silent_total r)
        0 rows
    in
    (* Ledger: one row per (protection, scheme) so perfdiff can track
       cycle costs and detection counts across runs. *)
    let ledger_rows =
      List.map
        (fun (r : Cccs.Faults.scheme_report) ->
          let open Json in
          let sum f =
            f r.Cccs.Faults.rom + f r.Cccs.Faults.table + f r.Cccs.Faults.cache
          in
          Obj
            [
              ( "name",
                Str
                  (Printf.sprintf "faults/%s/%s" (protection_name r)
                     r.Cccs.Faults.scheme) );
              ("ratio", Num r.Cccs.Faults.ratio);
              ("clean_cycles", int r.Cccs.Faults.clean_cycles);
              ("faulty_cycles", int r.Cccs.Faults.faulty_cycles);
              ("detected", int (sum (fun c -> c.Cccs.Faults.detected)));
              ("silent", int (Cccs.Faults.silent_total r));
            ])
        rows
    in
    (* Every campaign covers the same schemes. *)
    let schemes =
      List.map
        (fun (r : Cccs.Faults.scheme_report) -> r.Cccs.Faults.scheme)
        (List.hd campaigns).Cccs.Faults.rows
    in
    ledger_append ~kind:"faults" ~jobs ~schemes
      ~meta:
        Json.[ ("bench", Str bench); ("seed", int seed); ("flips", int flips) ]
      ledger_rows;
    if protected_silent > 0 then
      Logs.err (fun m ->
          m "faults: %d silent corruption(s) leaked through CRC protection"
            protected_silent);
    let row_json (r : Cccs.Faults.scheme_report) =
      let open Json in
      Obj
        [
          ("scheme", Str r.Cccs.Faults.scheme);
          ("protection", Str (protection_name r));
          ("ratio", Num r.Cccs.Faults.ratio);
          ("protection_overhead", Num r.Cccs.Faults.protection_overhead);
          ("rom", counts_json r.Cccs.Faults.rom);
          ("table", counts_json r.Cccs.Faults.table);
          ("cache", counts_json r.Cccs.Faults.cache);
          ("clean_cycles", int r.Cccs.Faults.clean_cycles);
          ("faulty_cycles", int r.Cccs.Faults.faulty_cycles);
        ]
    in
    finish ~json ~schema:"cccs-faults/1" ~ok:(protected_silent = 0)
      Json.
        [
          ("bench", Str bench);
          ("seed", int seed);
          ("jobs", int jobs);
          ("flips", int flips);
          ("retries", int retries);
          ( "campaigns",
            Arr
              (List.map
                 (fun (t : Cccs.Faults.t) ->
                   Obj
                     [
                       ( "protection",
                         Str
                           (Encoding.Scheme.protection_name
                              t.Cccs.Faults.spec.Cccs.Faults.protection) );
                       ("rows", Arr (List.map row_json t.Cccs.Faults.rows));
                     ])
                 campaigns) );
        ]
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Run a seeded soft-error fault-injection campaign (ROM, cache and \
          decode-table surfaces) over every scheme; nonzero exit if a \
          protected scheme delivers a silent corruption")
    Term.(
      const run $ setup_logs $ bench_arg $ flips_arg $ seed_arg $ retries_arg
      $ protect_arg
      $ jobs_arg "Worker domains for the campaign (default: CCCS_JOBS)."
      $ json_arg "cccs-faults/1")

let fuzz_cmd =
  let seed_arg =
    let doc = "Campaign seed; every case derives its own stream from it." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let runs_arg =
    let doc = "Number of fuzz cases." in
    Arg.(value & opt count 1000 & info [ "runs" ] ~docv:"N" ~doc)
  in
  let budget_arg =
    let doc =
      "Wall-clock budget in seconds; 0 means unlimited.  A positive budget \
       truncates the campaign, so determinism holds only for (seed, runs)."
    in
    let seconds = at_least Arg.float 0. ~expected:"a non-negative number" in
    Arg.(value & opt seconds 0. & info [ "time-budget" ] ~docv:"SECONDS" ~doc)
  in
  let fixtures_arg =
    let doc =
      "Write a minimized repro fixture (JSON + OCaml snippet) per finding \
       into $(docv)."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "fixtures-dir" ] ~docv:"DIR" ~doc)
  in
  let run () seed runs time_budget jobs json fixtures_dir =
    let spec = { Cccs_fuzz.Fuzz.seed; runs; jobs; time_budget; fixtures_dir } in
    let r = Cccs_fuzz.Fuzz.run spec in
    let t = r.Cccs_fuzz.Fuzz.tallies in
    let findings = r.Cccs_fuzz.Fuzz.findings in
    let cases_per_s =
      float_of_int t.Cccs_fuzz.Fuzz.cases
      /. Float.max 1e-9 r.Cccs_fuzz.Fuzz.seconds
    in
    let out = report_to json in
    Format.fprintf out
      "fuzz: %d cases in %.1fs (%.0f/s): %d clean-ok, %d round-trip, %d \
       detected, %d silent-unprotected, %d codeword steps@."
      t.Cccs_fuzz.Fuzz.cases r.Cccs_fuzz.Fuzz.seconds cases_per_s
      t.Cccs_fuzz.Fuzz.clean_ok t.Cccs_fuzz.Fuzz.roundtrip
      t.Cccs_fuzz.Fuzz.detected t.Cccs_fuzz.Fuzz.silent_unprotected
      t.Cccs_fuzz.Fuzz.codeword_steps;
    List.iter
      (fun (f : Cccs_fuzz.Fuzz.finding) ->
        Format.fprintf out "  FINDING case %d [%s] %s@."
          f.Cccs_fuzz.Fuzz.case.Cccs_fuzz.Fuzz.id
          (Cccs_fuzz.Fuzz.kind_label f.Cccs_fuzz.Fuzz.kind)
          (Json.to_string (Cccs_fuzz.Fuzz.case_to_json f.Cccs_fuzz.Fuzz.case)))
      findings;
    ledger_append ~kind:"fuzz"
      ~jobs:(Option.value jobs ~default:(Cccs.Parallel.default_jobs ()))
      ~meta:Json.[ ("seed", int seed); ("runs", int runs) ]
      Json.
        [
          Obj
            [
              ("name", Str "fuzz/campaign");
              ("cases", int t.Cccs_fuzz.Fuzz.cases);
              ("seconds", Num r.Cccs_fuzz.Fuzz.seconds);
              ("cases_per_s", Num cases_per_s);
              ("findings", int (List.length findings));
            ];
        ];
    if findings <> [] then
      Logs.err (fun m -> m "fuzz: %d finding(s)" (List.length findings));
    (* report_to_json opens with the same schema and ok. *)
    if json then
      print_endline (Json.to_string (Cccs_fuzz.Fuzz.report_to_json r));
    exit (if findings = [] then 0 else 1)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Run the seeded differential fuzzing campaign: random program x \
          scheme x protection x fault, every decoder (LUT, bit-serial, \
          abstract, DFA replay) as an oracle against the others; findings \
          are delta-minimized and exit nonzero")
    Term.(
      const run $ setup_logs $ seed_arg $ runs_arg $ budget_arg
      $ jobs_arg "Worker domains (default: CCCS_JOBS)."
      $ json_arg "cccs-fuzz/1" $ fixtures_arg)

let perfdiff_cmd =
  let baseline_arg =
    let doc =
      "Baseline rows: a BENCH_*.json-style object ($(b,results) array), a \
       single ledger entry or perfdiff report ($(b,rows) array), or a \
       ledger JSONL file (its last matching entry is used).  Without this \
       option the previous matching ledger entry is the baseline."
    in
    Arg.(
      value & opt (some string) None & info [ "baseline" ] ~docv:"FILE" ~doc)
  in
  let ledger_arg =
    let doc = "Ledger file (default: \\$CCCS_LEDGER or ledger.jsonl)." in
    Arg.(value & opt (some string) None & info [ "ledger" ] ~docv:"FILE" ~doc)
  in
  let kind_arg =
    let doc =
      "Ledger entry kind to compare: $(b,bench), $(b,bench_perf), \
       $(b,bench_fuzz), $(b,verify_all), $(b,faults) or $(b,fuzz)."
    in
    Arg.(value & opt string "bench" & info [ "kind" ] ~docv:"KIND" ~doc)
  in
  let threshold_arg =
    let doc =
      "Override both regression thresholds (CI-backed and point-only) with \
       one relative change, in percent."
    in
    Arg.(
      value & opt (some float) None & info [ "threshold" ] ~docv:"PCT" ~doc)
  in
  let warn_arg =
    let doc = "Report regressions but always exit 0." in
    Arg.(value & flag & info [ "warn-only" ] ~doc)
  in
  (* Baseline rows from a file: BENCH-style {"results":[...]}, anything
     with a "rows" array (a ledger entry, a perfdiff report), or a ledger
     JSONL file, whose last [kind] entry wins. *)
  let load_baseline path kind =
    match Json.parse (read_file ~what:"perfdiff" path) with
    | Ok j -> (
        match
          ( Option.bind (Json.member "results" j) Json.to_list,
            Option.bind (Json.member "rows" j) Json.to_list )
        with
        | Some rows, _ | None, Some rows -> rows
        | None, None ->
            unreadable
              "perfdiff: %s has neither a \"results\" nor a \"rows\" array"
              path)
    | Error _ -> (
        (* Not one JSON value — try it as a JSONL ledger. *)
        let entries, warnings = Cccs_obs.Ledger.load ~path in
        List.iter
          (fun w -> Logs.warn (fun m -> m "perfdiff: %s: %s" path w))
          warnings;
        match Cccs_obs.Ledger.last ~kind entries with
        | Some e -> e.Cccs_obs.Ledger.rows
        | None ->
            unreadable
              "perfdiff: no %S entry in %s (and it is not a JSON report)" kind
              path)
  in
  let run () baseline ledger kind threshold warn_only json =
    let ledger_path =
      Option.value ledger ~default:(Cccs_obs.Ledger.default_path ())
    in
    let entries, warnings = Cccs_obs.Ledger.load ~path:ledger_path in
    List.iter
      (fun w -> Logs.warn (fun m -> m "ledger %s: %s" ledger_path w))
      warnings;
    let prev, cur_entry = Cccs_obs.Ledger.last_two ~kind entries in
    let cur =
      match cur_entry with
      | Some e -> e
      | None ->
          unreadable "perfdiff: no %S entry in %s — run the benchmark first"
            kind ledger_path
    in
    let base_rows, base_desc =
      match baseline with
      | Some path -> (load_baseline path kind, path)
      | None -> (
          match prev with
          | Some e ->
              ( e.Cccs_obs.Ledger.rows,
                Printf.sprintf "ledger %s @ %.0f" e.Cccs_obs.Ledger.git_rev
                  e.Cccs_obs.Ledger.timestamp )
          | None ->
              unreadable
                "perfdiff: only one %S entry in %s and no --baseline — \
                 nothing to compare against"
                kind ledger_path)
    in
    let config =
      match threshold with
      | None -> Cccs_obs.Compare.default
      | Some pct ->
          {
            Cccs_obs.Compare.default with
            Cccs_obs.Compare.rel_threshold = pct /. 100.;
            point_threshold = pct /. 100.;
          }
    in
    let rows =
      Cccs_obs.Compare.rows ~config ~base:base_rows
        ~cur:cur.Cccs_obs.Ledger.rows ()
    in
    let s = Cccs_obs.Compare.summarize rows in
    let out = report_to json in
    Format.fprintf out "perfdiff: %s entries, baseline %s@." kind base_desc;
    Format.fprintf out "%-34s %-11s %14s %14s %8s  %s@." "row" "metric" "base"
      "current" "delta" "verdict";
    List.iter
      (fun (r : Cccs_obs.Compare.row) ->
        Format.fprintf out "%-34s %-11s %14.4g %14.4g %+7.1f%%  %s%s@."
          r.Cccs_obs.Compare.name r.Cccs_obs.Compare.metric
          r.Cccs_obs.Compare.base r.Cccs_obs.Compare.cur
          (100. *. r.Cccs_obs.Compare.slowdown)
          (Cccs_obs.Compare.verdict_name r.Cccs_obs.Compare.verdict)
          (match r.Cccs_obs.Compare.ci with
          | Some (lo, hi) ->
              Printf.sprintf "  [%+.1f%%, %+.1f%%]" (100. *. lo) (100. *. hi)
          | None -> ""))
      rows;
    Format.fprintf out
      "perfdiff: %d improved, %d regressed, %d unchanged, %d untrusted@."
      s.Cccs_obs.Compare.improved s.Cccs_obs.Compare.regressed
      s.Cccs_obs.Compare.unchanged s.Cccs_obs.Compare.untrusted;
    let open Json in
    finish ~gate:(not warn_only) ~json ~schema:"cccs-perfdiff/1"
      ~ok:(not (Cccs_obs.Compare.any_regressed rows))
      [
        ("kind", Str kind);
        ("ledger", Str ledger_path);
        ("baseline", Str base_desc);
        ( "thresholds",
          Obj
            [
              ("rel", Num config.Cccs_obs.Compare.rel_threshold);
              ("point", Num config.Cccs_obs.Compare.point_threshold);
              ("r2_gate", Num config.Cccs_obs.Compare.r2_gate);
            ] );
        ("rows", Arr (List.map Cccs_obs.Compare.row_to_json rows));
        ( "summary",
          Obj
            [
              ("improved", int s.Cccs_obs.Compare.improved);
              ("regressed", int s.Cccs_obs.Compare.regressed);
              ("unchanged", int s.Cccs_obs.Compare.unchanged);
              ("untrusted", int s.Cccs_obs.Compare.untrusted);
            ] );
      ]
  in
  Cmd.v
    (Cmd.info "perfdiff"
       ~doc:
         "Statistically compare the latest ledger entry against the \
          previous one (or an explicit baseline file): bootstrap \
          confidence intervals where samples exist, an r-square noise \
          gate for untrusted rows, and exit 1 on a confirmed regression")
    Term.(
      const run $ setup_logs $ baseline_arg $ ledger_arg $ kind_arg
      $ threshold_arg $ warn_arg $ json_arg "cccs-perfdiff/1")

let disasm_cmd =
  let run () e =
    let r = Cccs.Workload_run.load e in
    print_string
      (Tepic.Asm.print_program r.Cccs.Workload_run.compiled.Cccs.Pipeline.program)
  in
  Cmd.v
    (Cmd.info "disasm" ~doc:"Print a workload's scheduled TEPIC assembly")
    Term.(const run $ setup_logs $ bench_arg)

let stats_cmd =
  let flips_arg =
    let doc =
      "Also run a seeded fault campaign with $(docv) flips per surface, so \
       the recovery-latency histogram has samples.  0 disables it."
    in
    Arg.(value & opt count 8 & info [ "flips" ] ~docv:"N" ~doc)
  in
  let baseline_arg =
    let doc =
      "Compare the snapshot's counters and gauges against a previous \
       $(b,cccs stats --json) output; deltas are printed (and embedded in \
       the JSON, together with both schema versions)."
    in
    Arg.(
      value & opt (some string) None & info [ "baseline" ] ~docv:"FILE" ~doc)
  in
  let run () (e : Workloads.Suite.entry) json flips baseline =
    let bench = e.name in
    let rc = Cccs_obs.Recorder.create () in
    let obs = Cccs_obs.Recorder.sink rc in
    (* Full instrumentation: compiler stage spans, the four fetch models,
       and (unless --flips 0) a small recovery campaign. *)
    let r = Cccs.Workload_run.load ~obs e in
    let s =
      Cccs_obs.Sink.timed ~obs ~stage:Cccs_obs.Event.Decoder_gen
        ~label:"schemes" (fun () -> Cccs.Experiments.schemes_of r)
    in
    let base_bits = s.Cccs.Experiments.base.Encoding.Scheme.code_bits in
    List.iter
      (fun (sc : Encoding.Scheme.t) ->
        Cccs_obs.Sink.gauge ~obs
          ("ratio." ^ sc.Encoding.Scheme.name)
          (Encoding.Scheme.ratio sc ~baseline_bits:base_bits))
      [
        s.Cccs.Experiments.base;
        s.Cccs.Experiments.full;
        s.Cccs.Experiments.tailored;
      ];
    List.iter
      (fun (_, model) -> ignore (model ?obs:(Some obs) ()))
      (Cccs.Experiments.fetch_models r);
    let fault_seed = 1999 in
    if flips > 0 then
      ignore
        (Cccs.Faults.run ~obs
           {
             Cccs.Faults.bench;
             seed = fault_seed;
             flips;
             retries = 2;
             protection = Encoding.Scheme.Crc8;
           });
    let m = Cccs_obs.Recorder.summarize rc in
    let snapshot =
      Cccs_obs.Export.json_of_snapshot
        ~extra:
          Json.
            [
              ("bench", Str bench);
              ("events", int (Cccs_obs.Recorder.length rc));
              (* Effective fault-campaign inputs, so the histogram's
                 samples are reproducible from the snapshot alone. *)
              ("seed", int fault_seed);
              ("flips", int flips);
            ]
        (Cccs_obs.Metrics.snapshot m)
    in
    (* --baseline: numeric deltas of counters/gauges vs a previous
       `cccs stats --json` snapshot, via Obs.Compare. *)
    let baseline =
      Option.map
        (fun path ->
          match Json.parse (read_file ~what:"stats: --baseline" path) with
          | Ok j ->
              (path, j, Cccs_obs.Compare.snapshot_deltas ~base:j ~cur:snapshot)
          | Error msg -> unreadable "stats: --baseline %s: %s" path msg)
        baseline
    in
    let out = report_to json in
    Format.fprintf out "bench          %s@." bench;
    Format.fprintf out "events         %d@." (Cccs_obs.Recorder.length rc);
    Format.fprintf out "%a@." Cccs_obs.Metrics.pp m;
    Option.iter
      (fun (path, _, ds) ->
        Format.fprintf out "deltas vs %s (%d changed):@." path (List.length ds);
        List.iter
          (fun (d : Cccs_obs.Compare.scalar_delta) ->
            Format.fprintf out "  %-42s %14.2f -> %14.2f  (%+.2f)@."
              d.Cccs_obs.Compare.sname d.Cccs_obs.Compare.sbase
              d.Cccs_obs.Compare.scur
              (d.Cccs_obs.Compare.scur -. d.Cccs_obs.Compare.sbase))
          ds)
      baseline;
    let open Json in
    let fields =
      match snapshot with
      | Obj kvs -> kvs
      | _ -> assert false (* json_of_snapshot builds one object *)
    in
    finish ~json ~schema:"cccs-stats/1" ~ok:true
      (match baseline with
      | None -> fields
      | Some (path, bj, ds) ->
          fields
          @ [
              ("baseline_path", Str path);
              ( "baseline_schema",
                Str
                  (match member "schema" bj with
                  | Some (Str s) -> s
                  | _ -> "unknown") );
              ( "deltas",
                Arr
                  (List.map
                     (fun (d : Cccs_obs.Compare.scalar_delta) ->
                       Obj
                         [
                           ("name", Str d.Cccs_obs.Compare.sname);
                           ("base", Num d.Cccs_obs.Compare.sbase);
                           ("cur", Num d.Cccs_obs.Compare.scur);
                         ])
                     ds) );
            ])
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run a workload under full instrumentation (compiler spans, all \
          four fetch models, optional fault campaign) and print the \
          metrics snapshot")
    Term.(
      const run $ setup_logs $ bench_arg $ json_arg "cccs-stats/1" $ flips_arg
      $ baseline_arg)

let export_cmd =
  let run (() : unit) () =
    (* CSV on stdout: one section per figure, ready for any plotting tool. *)
    let rows5 = Cccs.Experiments.fig5 () in
    print_endline "# fig5: bench,scheme,ratio";
    List.iter
      (fun (r : Cccs.Experiments.fig5_row) ->
        List.iter
          (fun (scheme, v) -> Printf.printf "fig5,%s,%s,%.6f\n" r.bench scheme v)
          r.ratios)
      rows5;
    print_endline "# fig13: bench,model,ipc,cycles,l1_misses,mispredicts";
    List.iter
      (fun (r : Cccs.Experiments.fig13_row) ->
        List.iter
          (fun (res : Fetch.Sim.result) ->
            Printf.printf "fig13,%s,%s,%.6f,%d,%d,%d\n" r.bench
              res.Fetch.Sim.model res.Fetch.Sim.ipc res.Fetch.Sim.cycles
              res.Fetch.Sim.l1_misses res.Fetch.Sim.mispredicts)
          [ r.ideal; r.base; r.compressed; r.tailored ])
      (Cccs.Experiments.fig13 ());
    print_endline "# fig14: bench,model,bus_flips";
    List.iter
      (fun (r : Cccs.Experiments.fig14_row) ->
        List.iter
          (fun (m, f) -> Printf.printf "fig14,%s,%s,%d\n" r.bench m f)
          r.flips)
      (Cccs.Experiments.fig14 ());
    (* Full simulator records, one row per (bench, model): every counter in
       Fetch.Sim.result, including the six fault/recovery fields. *)
    print_endline ("# sim: bench," ^ Fetch.Sim.csv_header);
    List.iter
      (fun (r : Cccs.Experiments.fig13_row) ->
        List.iter
          (fun res -> Printf.printf "sim,%s,%s\n" r.bench (Fetch.Sim.csv_row res))
          [ r.ideal; r.base; r.compressed; r.tailored ])
      (Cccs.Experiments.fig13 ())
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Dump figure data as CSV for external plotting")
    Term.(const run $ setup_logs $ const ())

let fig_cmd name doc render =
  Cmd.v (Cmd.info name ~doc)
    Term.(const (fun () -> render Format.std_formatter) $ setup_logs)

let default =
  Term.(ret (const (fun () -> `Help (`Pager, None)) $ const ()))

let () =
  let cmds =
    [
      list_cmd;
      compile_cmd;
      compress_cmd;
      decode_cmd;
      simulate_cmd;
      decoder_cmd;
      trace_cmd;
      verify_cmd;
      lint_cmd;
      validate_cmd;
      certify_cmd;
      wcet_cmd;
      faults_cmd;
      fuzz_cmd;
      perfdiff_cmd;
      disasm_cmd;
      stats_cmd;
      export_cmd;
      fig_cmd "fig5" "Reproduce Figure 5 (compression ratios)" (fun ppf ->
          Cccs.Report.fig5 ppf (Cccs.Experiments.fig5 ()));
      fig_cmd "fig7" "Reproduce Figure 7 (total size with ATT)" (fun ppf ->
          Cccs.Report.fig7 ppf (Cccs.Experiments.fig7 ()));
      fig_cmd "fig10" "Reproduce Figure 10 (decoder complexity)" (fun ppf ->
          Cccs.Report.fig10 ppf (Cccs.Experiments.fig10 ()));
      fig_cmd "fig13" "Reproduce Figure 13 (IPC cache study)" (fun ppf ->
          Cccs.Report.fig13 ppf (Cccs.Experiments.fig13 ()));
      fig_cmd "fig14" "Reproduce Figure 14 (bus bit flips)" (fun ppf ->
          Cccs.Report.fig14 ppf (Cccs.Experiments.fig14 ()));
      fig_cmd "ablation" "Hit-time vs miss-time decompression" (fun ppf ->
          Cccs.Report.ablation ppf (Cccs.Experiments.ablation ()));
      fig_cmd "predictors" "2-bit vs gshare prediction (extension)" (fun ppf ->
          Cccs.Report.predictors ppf (Cccs.Experiments.predictors ()));
      fig_cmd "superblocks" "Superblock fetch units (extension)" (fun ppf ->
          Cccs.Report.superblocks ppf (Cccs.Experiments.superblocks ()));
      fig_cmd "all" "Reproduce every figure and extension" (fun ppf ->
          Cccs.Report.all ppf ());
    ]
  in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "cccs" ~version:"1.0.0"
             ~doc:
               "Compiler-driven cached code compression for embedded ILP \
                processors (MICRO-32 reproduction)")
          cmds))
