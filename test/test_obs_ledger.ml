(* Cross-run observability: ledger round-trip and corruption handling,
   Compare verdict behaviour (the perfdiff exit contract at library
   level), and Flame self-time accounting and export. *)

open Cccs_obs

let tmp_path suffix =
  Filename.temp_file "cccs_test_ledger" suffix

(* ------------------------------------------------------------------ *)
(* Ledger *)

let sample_entry ?(kind = "bench") ?(ts = 1000.) rows =
  Ledger.make ~kind ~git_rev:"deadbeef" ~timestamp:ts ~cores:4 ~jobs:2
    ~schemes:[ "full"; "tailored" ]
    ~meta:[ ("seed", Json.int 7) ]
    rows

let row name v =
  Json.Obj [ ("name", Json.Str name); ("ns_per_run", Json.Num v) ]

let test_roundtrip () =
  let e = sample_entry [ row "a" 1.0; row "b" 2.0 ] in
  match Ledger.of_json (Ledger.to_json e) with
  | Error msg -> Alcotest.failf "roundtrip parse failed: %s" msg
  | Ok e' ->
      Alcotest.(check string) "kind" e.Ledger.kind e'.Ledger.kind;
      Alcotest.(check string) "git_rev" e.Ledger.git_rev e'.Ledger.git_rev;
      Alcotest.(check (float 0.)) "timestamp" e.Ledger.timestamp
        e'.Ledger.timestamp;
      Alcotest.(check int) "cores" e.Ledger.cores e'.Ledger.cores;
      Alcotest.(check int) "jobs" e.Ledger.jobs e'.Ledger.jobs;
      Alcotest.(check (list string)) "schemes" e.Ledger.schemes
        e'.Ledger.schemes;
      Alcotest.(check int) "rows" (List.length e.Ledger.rows)
        (List.length e'.Ledger.rows)

let test_append_load () =
  let path = tmp_path ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Sys.remove path;
      (* missing file loads as empty, no warnings *)
      let entries, warnings = Ledger.load ~path in
      Alcotest.(check int) "empty entries" 0 (List.length entries);
      Alcotest.(check int) "empty warnings" 0 (List.length warnings);
      Ledger.append ~path (sample_entry ~ts:1. [ row "a" 1.0 ]);
      Ledger.append ~path (sample_entry ~ts:2. [ row "a" 1.1 ]);
      Ledger.append ~path (sample_entry ~kind:"faults" ~ts:3. [ row "f" 9. ]);
      let entries, warnings = Ledger.load ~path in
      Alcotest.(check int) "entries" 3 (List.length entries);
      Alcotest.(check int) "warnings" 0 (List.length warnings);
      (* oldest first *)
      Alcotest.(check (float 0.))
        "order" 1.
        (List.hd entries).Ledger.timestamp;
      (* last / last_two respect kind filters *)
      (match Ledger.last ~kind:"faults" entries with
      | Some e -> Alcotest.(check (float 0.)) "last faults" 3. e.Ledger.timestamp
      | None -> Alcotest.fail "no faults entry");
      match Ledger.last_two ~kind:"bench" entries with
      | Some prev, Some cur ->
          Alcotest.(check (float 0.)) "prev" 1. prev.Ledger.timestamp;
          Alcotest.(check (float 0.)) "cur" 2. cur.Ledger.timestamp
      | _ -> Alcotest.fail "last_two bench")

let test_corrupted_lines () =
  let path = tmp_path ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Ledger.append ~path (sample_entry ~ts:1. [ row "a" 1.0 ]);
      let oc = open_out_gen [ Open_wronly; Open_append ] 0o644 path in
      output_string oc "this is not json\n";
      output_string oc "{\"schema\":\"other/1\"}\n";
      close_out oc;
      Ledger.append ~path (sample_entry ~ts:2. [ row "a" 1.1 ]);
      let entries, warnings = Ledger.load ~path in
      Alcotest.(check int) "good entries survive" 2 (List.length entries);
      Alcotest.(check int) "both bad lines warned" 2 (List.length warnings);
      List.iter
        (fun w ->
          Alcotest.(check bool)
            "warning names its line" true
            (String.length w > 5 && String.sub w 0 5 = "line "))
        warnings)

let test_git_rev () =
  (* Run from the repo root (dune runs tests in _build sandbox dirs, so
     point at the source tree explicitly). *)
  let dir = ".." in
  ignore dir;
  (* Whatever the cwd, git_rev must not raise and must return something
     non-empty. *)
  let rev = Ledger.git_rev () in
  Alcotest.(check bool) "non-empty" true (String.length rev > 0)

(* Ledger.record, the append every measuring entry point shares: it
   follows CCCS_LEDGER, stamps the entry, reports an unwritable ledger as
   an Error instead of raising, and touches nothing when the ledger is
   off.  The variable is left "off" so no later test writes a ledger. *)
let test_record () =
  let path = tmp_path ".jsonl" in
  let record () =
    Ledger.record ~kind:"k" ~timestamp:5. ~cores:3 ~jobs:2 [ row "a" 1.0 ]
  in
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "CCCS_LEDGER" "off";
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Sys.remove path;
      Unix.putenv "CCCS_LEDGER" path;
      Alcotest.(check bool) "appended" true (record () = Ok ());
      (match Ledger.load ~path with
      | [ e ], [] ->
          Alcotest.(check string) "kind" "k" e.Ledger.kind;
          Alcotest.(check int) "cores" 3 e.Ledger.cores;
          Alcotest.(check int) "jobs" 2 e.Ledger.jobs;
          Alcotest.(check bool) "git rev" true (e.Ledger.git_rev <> "")
      | _ -> Alcotest.fail "expected one entry");
      Unix.putenv "CCCS_LEDGER" (Filename.concat path "no-such-dir.jsonl");
      Alcotest.(check bool) "unwritable" true (Result.is_error (record ()));
      Unix.putenv "CCCS_LEDGER" "off";
      let written () = Sys.file_exists (Ledger.default_path ()) in
      let before = written () in
      Alcotest.(check bool) "off" true (record () = Ok ());
      Alcotest.(check bool) "nothing written" before (written ()))

(* ------------------------------------------------------------------ *)
(* Compare *)

let srow name samples =
  let mean =
    List.fold_left ( +. ) 0. samples /. float_of_int (List.length samples)
  in
  Json.Obj
    [
      ("name", Json.Str name);
      ("ns_per_run", Json.Num mean);
      ("samples", Json.Arr (List.map (fun x -> Json.Num x) samples));
    ]

let verdict = Alcotest.testable (Fmt.of_to_string Compare.verdict_name) ( = )

let one_verdict rows =
  match rows with
  | [ (r : Compare.row) ] -> r.Compare.verdict
  | l -> Alcotest.failf "expected one row, got %d" (List.length l)

let test_verdicts () =
  let base = [ srow "x" [ 100.; 101.; 99.; 100.; 100. ] ] in
  let regressed = [ srow "x" [ 200.; 202.; 198.; 201.; 199. ] ] in
  let improved = [ srow "x" [ 50.; 51.; 49.; 50.; 50. ] ] in
  Alcotest.check verdict "2x slower is regressed" Compare.Regressed
    (one_verdict (Compare.rows ~base ~cur:regressed ()));
  Alcotest.check verdict "2x faster is improved" Compare.Improved
    (one_verdict (Compare.rows ~base ~cur:improved ()));
  Alcotest.check verdict "identical is unchanged" Compare.Unchanged
    (one_verdict (Compare.rows ~base ~cur:base ()))

(* Rows of older "bench" ledger entries carry an r-square fit and no
   samples: they take the 25% point verdict like any bare estimate. *)
let test_old_bench_rows () =
  let old v =
    [
      Json.Obj
        [
          ("name", Json.Str "x");
          ("ns_per_run", Json.Num v);
          ("r_square", Json.Num (-13.4));
          ("trusted", Json.Bool false);
        ];
    ]
  in
  Alcotest.check verdict "old bench row 3x slower is regressed"
    Compare.Regressed
    (one_verdict (Compare.rows ~base:(old 100.) ~cur:(old 300.) ()));
  Alcotest.check verdict "old bench row 20% slower is unchanged"
    Compare.Unchanged
    (one_verdict (Compare.rows ~base:(old 100.) ~cur:(old 120.) ()))

(* The flake-resistance pin: identical sample data must compare Unchanged
   for every bootstrap seed — the degenerate CI [0,0] cannot clear zero. *)
let test_no_false_regression () =
  let base = [ srow "x" [ 100.; 103.; 97.; 101.; 99.; 100.; 102. ] ] in
  for seed = 1 to 1000 do
    let config = { Compare.default with Compare.seed } in
    match Compare.rows ~config ~base ~cur:base () with
    | [ r ] ->
        if r.Compare.verdict <> Compare.Unchanged then
          Alcotest.failf "seed %d: identical data compared %s" seed
            (Compare.verdict_name r.Compare.verdict)
    | _ -> Alcotest.fail "expected one row"
  done

(* Library-level perfdiff exit contract: same rows → ok; a synthetic 2x
   slowdown → regression flagged. *)
let test_exit_contract () =
  let base =
    [ srow "a" [ 10.; 10.5; 9.5 ]; srow "b" [ 100.; 101.; 99. ] ]
  in
  let slower =
    [ srow "a" [ 10.; 10.5; 9.5 ]; srow "b" [ 200.; 202.; 198. ] ]
  in
  Alcotest.(check bool)
    "same rows: no regression" false
    (Compare.any_regressed (Compare.rows ~base ~cur:base ()));
  let rows = Compare.rows ~base ~cur:slower () in
  Alcotest.(check bool) "2x slowdown regresses" true
    (Compare.any_regressed rows);
  let s = Compare.summarize rows in
  Alcotest.(check int) "exactly one regression" 1 s.Compare.regressed

let test_higher_better () =
  (* mb_per_s: halving the throughput is a regression. *)
  let mk v =
    [ Json.Obj [ ("name", Json.Str "d"); ("mb_per_s", Json.Num v) ] ]
  in
  Alcotest.check verdict "throughput drop regresses" Compare.Regressed
    (one_verdict (Compare.rows ~base:(mk 120.) ~cur:(mk 60.) ()));
  Alcotest.check verdict "throughput gain improves" Compare.Improved
    (one_verdict (Compare.rows ~base:(mk 60.) ~cur:(mk 120.) ()))

(* Samples in another unit than the row's metric are not bootstrapped:
   image-decode rows once recorded seconds under [mb_per_s], and halving
   the throughput then read unchanged. *)
let test_samples_in_other_unit () =
  let mk mb_per_s seconds =
    [
      Json.Obj
        [
          ("name", Json.Str "perf/image-decode/full");
          ("mb_per_s", Json.Num mb_per_s);
          ("samples", Json.Arr (List.map (fun s -> Json.Num s) seconds));
        ];
    ]
  in
  let base = mk 100. [ 1.0e-4; 1.01e-4; 1.02e-4 ]
  and cur = mk 50. [ 2.0e-4; 2.02e-4; 2.04e-4 ] in
  match Compare.rows ~base ~cur () with
  | [ r ] ->
      Alcotest.check verdict "half the MB/s regresses" Compare.Regressed
        r.Compare.verdict;
      Alcotest.(check bool)
        "point verdict, no interval" true (r.Compare.ci = None)
  | l -> Alcotest.failf "expected one row, got %d" (List.length l)

let test_snapshot_deltas () =
  let snap c g =
    Json.Obj
      [
        ("counters", Json.Obj [ ("hits", Json.Num c) ]);
        ("gauges", Json.Obj [ ("ratio", Json.Num g) ]);
      ]
  in
  let ds = Compare.snapshot_deltas ~base:(snap 10. 0.5) ~cur:(snap 12. 0.5) in
  match ds with
  | [ d ] ->
      Alcotest.(check string) "only the changed field" "counters.hits"
        d.Compare.sname;
      Alcotest.(check (float 0.)) "base" 10. d.Compare.sbase;
      Alcotest.(check (float 0.)) "cur" 12. d.Compare.scur
  | l -> Alcotest.failf "expected one delta, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Flame *)

let span stage label start_us dur_us =
  Event.Span { stage; label; start_us; dur_us }

let test_flame_nesting_and_self () =
  (* parent [0,100], children [10,30] and [50,20]; sibling root [200,50].
     Emission order mimics Sink.timed: children before their parent. *)
  let events =
    [|
      span Event.Schedule "child1" 10. 30.;
      span Event.Regalloc "child2" 50. 20.;
      span Event.Lower "parent" 0. 100.;
      span Event.Simulate "other" 200. 50.;
    |]
  in
  let nodes = Flame.of_events events in
  Alcotest.(check int) "two roots" 2 (List.length nodes);
  let parent = List.hd nodes in
  Alcotest.(check string) "root is the outer span" "lower:parent"
    (Flame.frame parent);
  Alcotest.(check int) "two children" 2 (List.length parent.Flame.children);
  Alcotest.(check (float 1e-9)) "parent self = 100-30-20" 50.
    parent.Flame.self_us;
  (* Invariant: self times sum to root durations. *)
  let total_self =
    List.fold_left (fun a (_, v) -> a +. v) 0. (Flame.self_times nodes)
  in
  Alcotest.(check (float 1e-6)) "self sums to wall" (Flame.total_us nodes)
    total_self

let test_flame_real_pipeline () =
  (* A real compile run: instrument Workload_run.load and check that the
     collapsed export's values sum to total instrumented time within 1%
     (rounding to integer microseconds loses <0.5us per frame). *)
  let e =
    match Workloads.Suite.find "fir" with
    | Some e -> e
    | None -> Alcotest.fail "fir workload missing"
  in
  Cccs.Workload_run.clear_cache ();
  let rc = Recorder.create () in
  let r = Cccs.Workload_run.load ~obs:(Recorder.sink rc) e in
  ignore r;
  Cccs.Workload_run.clear_cache ();
  let nodes = Flame.of_events (Recorder.events rc) in
  Alcotest.(check bool) "has spans" true (nodes <> []);
  let total = Flame.total_us nodes in
  let collapsed = Flame.collapsed nodes in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' collapsed)
  in
  Alcotest.(check bool) "has collapsed lines" true (lines <> []);
  let sum =
    List.fold_left
      (fun acc line ->
        (* "frame;frame 123" — integer count after the last space *)
        match String.rindex_opt line ' ' with
        | None -> Alcotest.failf "malformed collapsed line %S" line
        | Some i ->
            let v = String.sub line (i + 1) (String.length line - i - 1) in
            (match int_of_string_opt v with
            | Some n when n > 0 -> acc + n
            | _ -> Alcotest.failf "malformed collapsed count in %S" line))
      0 lines
  in
  let err = Float.abs (float_of_int sum -. total) /. Float.max 1. total in
  if err > 0.01 then
    Alcotest.failf "collapsed sum %d vs total %.1fus: %.2f%% off" sum total
      (100. *. err)

let test_flame_chrome_parses () =
  (* A --flame FILE.json holds the spans as a Chrome trace: each span is
     named by its label, with its stage as cat. *)
  let path = tmp_path ".json" in
  Flame.write ~path [| span Event.Schedule "x" 2. 10. |];
  let text = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  match Json.parse text with
  | Error e -> Alcotest.failf "chrome trace does not reparse: %s" e
  | Ok j ->
      let spans =
        List.filter
          (fun e -> Json.member "ph" e = Some (Json.Str "X"))
          (Option.value ~default:[]
             (Option.bind (Json.member "traceEvents" j) Json.to_list))
      in
      Alcotest.(check (list (pair string string)))
        "one span, named by its label" [ ("x", "schedule") ]
        (List.map
           (fun e ->
             match (Json.member "name" e, Json.member "cat" e) with
             | Some (Json.Str n), Some (Json.Str c) -> (n, c)
             | _ -> Alcotest.fail "span without name or cat")
           spans)

let suite =
  [
    Alcotest.test_case "ledger json roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "ledger append/load" `Quick test_append_load;
    Alcotest.test_case "ledger skips corrupted lines" `Quick
      test_corrupted_lines;
    Alcotest.test_case "git rev total" `Quick test_git_rev;
    Alcotest.test_case "compare verdicts" `Quick test_verdicts;
    Alcotest.test_case "compare old bench rows" `Quick test_old_bench_rows;
    Alcotest.test_case "no false regression, 1000 seeds" `Quick
      test_no_false_regression;
    Alcotest.test_case "perfdiff exit contract" `Quick test_exit_contract;
    Alcotest.test_case "higher-is-better metrics" `Quick test_higher_better;
    Alcotest.test_case "snapshot deltas" `Quick test_snapshot_deltas;
    Alcotest.test_case "flame nesting and self time" `Quick
      test_flame_nesting_and_self;
    Alcotest.test_case "flame collapsed sums to wall time" `Quick
      test_flame_real_pipeline;
    Alcotest.test_case "flame chrome trace parses" `Quick
      test_flame_chrome_parses;
    Alcotest.test_case "ledger record" `Quick test_record;
    Alcotest.test_case "compare skips samples in another unit" `Quick
      test_samples_in_other_unit;
  ]
