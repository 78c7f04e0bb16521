(* verify_all — end-to-end verification sweep over every workload.

   For each workload: compile, execute, differentially check the scheduled
   VLIW program against the sequential reference interpreter (identical
   memory, identical control-flow trace), check that every encoding scheme
   decodes the ROM back to the identical program, run the static verifier
   (Cccs.Analysis) over the CFG, schedule, encodings and decoder — the
   decoder certification pass (CCCS-E2xx) gets its own per-row column —
   and run the trace-backed WCET analysis, whose bound must dominate the
   simulator replay on every scheme (bound/simulated ratio >= 1).

   This is the long-form version of what `dune runtest` samples; CI or a
   release check can run it directly:  dune exec bin/verify_all.exe

   With --json the human-readable report moves to stderr and stdout gets a
   single machine-readable JSON object (schema "cccs-verify/1") that CI
   archives as an artifact.  Exit codes are identical in both modes. *)

let json_mode = Array.exists (( = ) "--json") Sys.argv

(* Human-readable output; demoted to stderr in --json mode so stdout stays
   pure JSON. *)
let out = if json_mode then stderr else stdout

type row = {
  name : string;
  mem_ok : bool;
  trace_ok : bool;
  schemes_ok : bool;
  lint_ok : bool;
  lint_warnings : int;
  validate_ok : bool;
  validate_failed : string list;
      (* schemes the image-level translation validator rejected *)
  certify_ok : bool;
  certify_failed : string list;
      (* schemes the decoder certification pass rejected (CCCS-E2xx) *)
  faults_ok : bool;
  faults_detected : int;
  wcet_ok : bool;
  wcet_failed : string list;
      (* schemes with an unsound or missing bound (CCCS-E3xx / ratio<1) *)
  wcet_min_ratio : float option;
      (* worst bound/simulated ratio across schemes; sound means >= 1 *)
  seconds : float;
  perf_trend : string;
      (* vs the last ledgered sweep: "+NN%" / "-NN%" / "~" / "n/a" *)
  seconds_baseline : float option;
}

(* The per-row column table — THE single declarative source for the human
   row cells, the check summary, the JSON `checks` object and the overall
   verdict.  Adding a pass means adding one entry here; nothing else can
   drift.  [gates] distinguishes pass/fail checks from informational
   columns (perf-trend), which print but never fail the sweep. *)
type column = {
  label : string;  (* summary / JSON key, e.g. "decoder-certify" *)
  cell : string;  (* short name in the per-workload row line *)
  gates : bool;
  ok_of : row -> bool;
  show : row -> string;
}

let flag ok = if ok then "OK" else "FAIL"

let flag_schemes ok failed =
  if ok then "OK" else "FAIL[" ^ String.concat "," failed ^ "]"

let columns =
  [
    {
      label = "differential-memory";
      cell = "mem";
      gates = true;
      ok_of = (fun r -> r.mem_ok);
      show = (fun r -> flag r.mem_ok);
    };
    {
      label = "differential-trace";
      cell = "trace";
      gates = true;
      ok_of = (fun r -> r.trace_ok);
      show = (fun r -> flag r.trace_ok);
    };
    {
      label = "scheme-decode-back";
      cell = "schemes";
      gates = true;
      ok_of = (fun r -> r.schemes_ok);
      show = (fun r -> flag r.schemes_ok);
    };
    {
      label = "static-lint";
      cell = "lint";
      gates = true;
      ok_of = (fun r -> r.lint_ok);
      show = (fun r -> flag r.lint_ok);
    };
    {
      label = "image-validate";
      cell = "validate";
      gates = true;
      ok_of = (fun r -> r.validate_ok);
      show = (fun r -> flag_schemes r.validate_ok r.validate_failed);
    };
    {
      label = "decoder-certify";
      cell = "certify";
      gates = true;
      ok_of = (fun r -> r.certify_ok);
      show = (fun r -> flag_schemes r.certify_ok r.certify_failed);
    };
    {
      label = "fault-protection";
      cell = "faults";
      gates = true;
      ok_of = (fun r -> r.faults_ok);
      show =
        (fun r ->
          Printf.sprintf "%s(%d det)" (flag r.faults_ok) r.faults_detected);
    };
    {
      label = "wcet-bound";
      cell = "wcet";
      gates = true;
      ok_of = (fun r -> r.wcet_ok);
      show =
        (fun r ->
          if not r.wcet_ok then flag_schemes false r.wcet_failed
          else
            match r.wcet_min_ratio with
            | Some m -> Printf.sprintf "OK(x%.2f)" m
            | None -> "OK");
    };
    {
      label = "perf-trend";
      cell = "perf";
      gates = false;
      ok_of = (fun _ -> true);
      show = (fun r -> r.perf_trend);
    };
  ]

let gating = List.filter (fun c -> c.gates) columns
let row_ok r = List.for_all (fun c -> c.ok_of r) gating

(* Fixed seed of the per-workload fault campaign; echoed in the JSON so a
   consumer can reproduce the exact campaign outside this sweep. *)
let fault_seed = 7

(* Wall-clock of the last ledgered sweep, keyed by workload, for the
   perf-trend column.  Point-only seconds go through Obs.Compare, whose
   wide point threshold keeps one noisy run from crying regression. *)
let prev_seconds : string -> float option =
  if not (Cccs_obs.Ledger.enabled ()) then fun _ -> None
  else
    let entries, _warnings =
      Cccs_obs.Ledger.load ~path:(Cccs_obs.Ledger.default_path ())
    in
    match Cccs_obs.Ledger.last ~kind:"verify_all" entries with
    | None -> fun _ -> None
    | Some e ->
        let tbl = Hashtbl.create 16 in
        List.iter
          (fun row ->
            match
              ( Cccs_obs.Json.member "name" row,
                Cccs_obs.Json.member "seconds" row )
            with
            | Some (Cccs_obs.Json.Str n), Some (Cccs_obs.Json.Num s) ->
                Hashtbl.replace tbl n s
            | _ -> ())
          e.Cccs_obs.Ledger.rows;
        fun n -> Hashtbl.find_opt tbl n

let trend_of ~name ~seconds =
  match prev_seconds name with
  | None -> ("n/a", None)
  | Some base_s -> (
      let mk s =
        [
          Cccs_obs.Json.Obj
            [
              ("name", Cccs_obs.Json.Str name);
              ("seconds", Cccs_obs.Json.Num s);
            ];
        ]
      in
      match Cccs_obs.Compare.rows ~base:(mk base_s) ~cur:(mk seconds) () with
      | [ row ] ->
          let pct = 100. *. row.Cccs_obs.Compare.slowdown in
          let label =
            match row.Cccs_obs.Compare.verdict with
            | Cccs_obs.Compare.Regressed -> Printf.sprintf "%+.0f%%" pct
            | Cccs_obs.Compare.Improved -> Printf.sprintf "%+.0f%%" pct
            | Cccs_obs.Compare.Unchanged -> "~"
            | Cccs_obs.Compare.Untrusted -> "?"
          in
          (label, Some base_s)
      | _ -> ("n/a", None))

(* Per-workload report lines go through [emit] so a parallel sweep can
   buffer each workload's output and print it in suite order after the
   gather; at jobs=1 [emit] writes straight to [out] as before. *)
let check_workload ~emit (e : Workloads.Suite.entry) =
  let t0 = Unix.gettimeofday () in
  let r = Cccs.Workload_run.load e in
  let c = r.Cccs.Workload_run.compiled in
  let prog = c.Cccs.Pipeline.program in
  let res = r.Cccs.Workload_run.exec in
  let v = Cccs.Experiments.verify r in
  (* Fixed-seed protected fault campaign: CRC framing must detect every
     exposed flip (zero silent corruptions) and must actually be exercised
     (nonzero detections). *)
  let faults_ok, faults_detected =
    let t =
      Cccs.Faults.run
        {
          Cccs.Faults.bench = r.Cccs.Workload_run.name;
          seed = fault_seed;
          flips = 16;
          retries = 2;
          protection = Encoding.Scheme.Crc8;
        }
    in
    let detected =
      List.fold_left
        (fun a (x : Cccs.Faults.scheme_report) ->
          a + x.Cccs.Faults.rom.Cccs.Faults.detected
          + x.Cccs.Faults.table.Cccs.Faults.detected
          + x.Cccs.Faults.cache.Cccs.Faults.detected)
        0 t.Cccs.Faults.rows
    in
    let no_sdc =
      List.for_all
        (fun x -> Cccs.Faults.silent_total x = 0)
        t.Cccs.Faults.rows
    in
    (no_sdc && detected > 0, detected)
  in
  let diags = Cccs.Analysis.lint_run r in
  let lint_errors = List.filter Cccs.Analysis.Diag.is_error diags in
  let lint_ok = lint_errors = [] in
  (* The image-level translation validator attributes its findings to a
     scheme; the per-scheme column shows exactly which ROMs failed. *)
  let validate_failed =
    List.sort_uniq compare
      (List.filter_map
         (fun (d : Cccs.Analysis.Diag.t) ->
           d.Cccs.Analysis.Diag.loc.Cccs.Analysis.Diag.scheme)
         lint_errors)
  in
  let validate_ok = validate_failed = [] in
  (* The decoder certification pass has its own code family (CCCS-E2xx);
     its column proves the decode automata rather than the built image. *)
  let certify_errors =
    List.filter
      (fun (d : Cccs.Analysis.Diag.t) ->
        String.length d.Cccs.Analysis.Diag.code >= 7
        && String.sub d.Cccs.Analysis.Diag.code 0 7 = "CCCS-E2")
      lint_errors
  in
  let certify_failed =
    List.sort_uniq compare
      (List.filter_map
         (fun (d : Cccs.Analysis.Diag.t) ->
           d.Cccs.Analysis.Diag.loc.Cccs.Analysis.Diag.scheme)
         certify_errors)
  in
  let certify_ok = certify_errors = [] in
  List.iter
    (fun d ->
      Printf.ksprintf emit "  %s\n" (Cccs.Analysis.Diag.to_string d))
    lint_errors;
  (* Trace-backed WCET with the simulator-replay soundness checks: every
     scheme must get a finite bound and the replay must land within it
     (bound/simulated ratio >= 1, CCCS-E30x clean). *)
  let wcet_ok, wcet_failed, wcet_min_ratio =
    let results = Cccs.Analysis.wcet_run r in
    let failed = ref [] and min_ratio = ref None in
    List.iter
      (fun (diags, w) ->
        let scheme_of_diags () =
          match
            List.find_map
              (fun (d : Cccs.Analysis.Diag.t) ->
                d.Cccs.Analysis.Diag.loc.Cccs.Analysis.Diag.scheme)
              diags
          with
          | Some s -> s
          | None -> "?"
        in
        let errs = List.filter Cccs.Analysis.Diag.is_error diags in
        List.iter
          (fun d ->
            Printf.ksprintf emit "  %s\n" (Cccs.Analysis.Diag.to_string d))
          errs;
        match w with
        | None -> failed := scheme_of_diags () :: !failed
        | Some (w : Cccs.Analysis.Timing_check.wcet) ->
            let sound =
              errs = []
              &&
              match w.Cccs.Analysis.Timing_check.ratio with
              | Some f -> f >= 1.0
              | None -> false
            in
            if not sound then
              failed := w.Cccs.Analysis.Timing_check.scheme :: !failed;
            match w.Cccs.Analysis.Timing_check.ratio with
            | Some f ->
                min_ratio :=
                  Some
                    (match !min_ratio with
                    | None -> f
                    | Some m -> min m f)
            | None -> ())
      results;
    (!failed = [], List.sort_uniq compare !failed, !min_ratio)
  in
  let seconds = Unix.gettimeofday () -. t0 in
  let perf_trend, seconds_baseline =
    trend_of ~name:r.Cccs.Workload_run.name ~seconds
  in
  let row =
    {
      name = r.Cccs.Workload_run.name;
      mem_ok = v.Cccs.Experiments.memory_ok;
      trace_ok = v.Cccs.Experiments.trace_ok;
      schemes_ok = List.for_all snd v.Cccs.Experiments.decode_back;
      lint_ok;
      lint_warnings = List.length diags - List.length lint_errors;
      validate_ok;
      validate_failed;
      certify_ok;
      certify_failed;
      faults_ok;
      faults_detected;
      wcet_ok;
      wcet_failed;
      wcet_min_ratio;
      seconds;
      perf_trend;
      seconds_baseline;
    }
  in
  Printf.ksprintf emit
    "%-12s blocks=%5d ops=%6d ilp=%4.2f hoist=%4d | dyn_ops=%8d visits=%7d \
     %s |%s | %.2fs\n"
    r.Cccs.Workload_run.name
    (Tepic.Program.num_blocks prog)
    (Tepic.Program.num_ops prog)
    c.Cccs.Pipeline.ilp c.Cccs.Pipeline.hoisted
    (Emulator.Trace.total_ops res.Emulator.Exec.trace)
    (Emulator.Trace.length res.Emulator.Exec.trace)
    (match res.Emulator.Exec.stop with
    | Emulator.Exec.Fell_through -> "end"
    | Emulator.Exec.Halted -> "halt"
    | Emulator.Exec.Budget_exhausted -> "BUDGET")
    (String.concat ""
       (List.map (fun col -> " " ^ col.cell ^ " " ^ col.show row) columns))
    seconds;
  row

let json_report ~jobs rows ok =
  let open Cccs_obs.Json in
  let row_json r =
    Obj
      [
        ("name", Str r.name);
        ("mem_ok", Bool r.mem_ok);
        ("trace_ok", Bool r.trace_ok);
        ("schemes_ok", Bool r.schemes_ok);
        ("lint_ok", Bool r.lint_ok);
        ("lint_warnings", int r.lint_warnings);
        ("validate_ok", Bool r.validate_ok);
        ( "validate_failed",
          Arr (List.map (fun s -> Str s) r.validate_failed) );
        ("certify_ok", Bool r.certify_ok);
        ("certify_failed", Arr (List.map (fun s -> Str s) r.certify_failed));
        ("faults_ok", Bool r.faults_ok);
        ("faults_detected", int r.faults_detected);
        ("wcet_ok", Bool r.wcet_ok);
        ("wcet_failed", Arr (List.map (fun s -> Str s) r.wcet_failed));
        ( "wcet_min_ratio",
          match r.wcet_min_ratio with None -> Null | Some f -> Num f );
        ("seconds", Num r.seconds);
        ("perf_trend", Str r.perf_trend);
        ( "seconds_baseline",
          match r.seconds_baseline with None -> Null | Some s -> Num s );
      ]
  in
  let check_json c =
    let failed =
      List.filter_map
        (fun r -> if c.ok_of r then None else Some (Str r.name))
        rows
    in
    (c.label, Obj [ ("pass", Bool (failed = [])); ("failed", Arr failed) ])
  in
  Obj
    [
      ("schema", Str "cccs-verify/1");
      ("ok", Bool ok);
      ("seed", int fault_seed);
      ("jobs", int jobs);
      ("workloads", Arr (List.map row_json rows));
      ("checks", Obj (List.map check_json gating));
    ]

let () =
  let jobs = Cccs.Parallel.default_jobs () in
  let rows =
    if jobs <= 1 then
      (* Sequential: stream each workload's lines as they finish. *)
      List.map
        (fun e ->
          let r = check_workload ~emit:(fun s -> output_string out s) e in
          flush out;
          r)
        Workloads.Suite.all
    else
      (* Parallel (CCCS_JOBS > 1): each workload verifies in its own
         domain with its output buffered; buffers print in suite order
         after the gather, so the report reads identically to the
         sequential run (modulo the per-workload timings). *)
      List.map
        (fun (r, lines) ->
          output_string out lines;
          r)
        (Cccs.Parallel.map ~jobs
           (fun e ->
             let b = Buffer.create 512 in
             let r = check_workload ~emit:(Buffer.add_string b) e in
             (r, Buffer.contents b))
           Workloads.Suite.all)
  in
  flush out;
  let total = List.length rows in
  let summary c =
    let failed = List.filter (fun r -> not (c.ok_of r)) rows in
    Printf.fprintf out "check %-22s %d/%d pass%s\n" c.label
      (total - List.length failed)
      total
      (if failed = [] then ""
       else
         ": FAIL " ^ String.concat ", " (List.map (fun r -> r.name) failed))
  in
  Printf.fprintf out "\n";
  List.iter summary gating;
  let warn = List.fold_left (fun acc r -> acc + r.lint_warnings) 0 rows in
  if warn > 0 then
    Printf.fprintf out "static-lint warnings: %d (non-fatal)\n" warn;
  let ok = List.for_all row_ok rows in
  (* Ledger: one row per workload, so the next sweep's perf-trend column
     (and `cccs perfdiff --kind verify_all`) has this run as baseline. *)
  Cccs_obs.Ledger.record ~kind:"verify_all" ~timestamp:(Unix.gettimeofday ())
    ~cores:(Cccs.Parallel.cores ()) ~jobs
    ~meta:[ ("seed", Cccs_obs.Json.int fault_seed) ]
    (List.map
       (fun r ->
         Cccs_obs.Json.Obj
           [
             ("name", Cccs_obs.Json.Str r.name);
             ("seconds", Cccs_obs.Json.Num r.seconds);
             ("ok", Cccs_obs.Json.Bool (row_ok r));
           ])
       rows)
  |> Result.iter_error (Printf.eprintf "verify_all: ledger: %s\n%!");
  if json_mode then
    print_endline (Cccs_obs.Json.to_string (json_report ~jobs rows ok));
  if ok then Printf.fprintf out "verify_all: all workloads verified\n"
  else begin
    Printf.fprintf out "verify_all: FAILURES\n";
    exit 1
  end
