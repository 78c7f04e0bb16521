(* Tests for the differential fuzzing engine.

   The deep invariants (decoder agreement, CRC detection) are exercised by
   the campaign itself; these tests pin down the harness machinery the
   campaign's trustworthiness rests on: seed determinism independent of
   sharding, the per-case exception barrier, delta minimization, fixture
   serialization, and replay of every checked-in regression fixture. *)

module F = Cccs_fuzz.Fuzz
module Json = Cccs_obs.Json
module Scheme = Encoding.Scheme

let small_spec = { F.default_spec with F.runs = 120 }

let norm_json r =
  (* [seconds] is wall-clock and [jobs] is the sharding width under test —
     everything else must be bit-identical. *)
  let r = { r with F.seconds = 0.; spec = { r.F.spec with F.jobs = None } } in
  Json.to_string (F.report_to_json r)

let test_determinism_across_jobs () =
  let r1 = F.run { small_spec with F.jobs = Some 1 } in
  let r2 = F.run { small_spec with F.jobs = Some 3 } in
  Alcotest.(check string)
    "same seed, different sharding: identical report" (norm_json r1)
    (norm_json r2);
  let r3 = F.run { small_spec with F.jobs = Some 1 } in
  Alcotest.(check string) "re-run is bit-identical" (norm_json r1) (norm_json r3)

let test_clean_campaign () =
  let r = F.run small_spec in
  Alcotest.(check int) "all cases evaluated" small_spec.F.runs r.F.tallies.F.cases;
  Alcotest.(check int)
    "no findings on the current decoders" 0
    (List.length r.F.findings);
  Alcotest.(check bool)
    "codeword oracles actually stepped" true
    (r.F.tallies.F.codeword_steps > 0);
  Alcotest.(check bool)
    "fault-free and faulted cases both present" true
    (r.F.tallies.F.clean_ok > 0
    && r.F.tallies.F.detected + r.F.tallies.F.roundtrip > 0)

let crash_case =
  (* An unknown scheme name makes the case builder raise; the barrier must
     convert that into a finding, never a campaign abort. *)
  {
    F.id = 900_100;
    master = 42;
    pool = 0;
    scheme = "nonexistent";
    protection = Scheme.Unprotected;
    blocks = [ 0; 1; 2; 3 ];
    fault = F.Bit_flips [ 3; 5; 9 ];
  }

let test_case_barrier () =
  match F.run_case crash_case with
  | Some (F.Case_crash _) -> ()
  | Some k -> Alcotest.failf "expected case-crash, got %s" (F.kind_label k)
  | None -> Alcotest.fail "crashing case reported clean"

let test_minimize () =
  let kind =
    match F.run_case crash_case with
    | Some k -> k
    | None -> Alcotest.fail "crashing case reported clean"
  in
  let m = F.minimize crash_case kind in
  (* Minimization must preserve the finding... *)
  (match F.run_case m with
  | Some k ->
      Alcotest.(check string) "kind preserved" (F.kind_label kind)
        (F.kind_label k)
  | None -> Alcotest.fail "minimized case no longer fails");
  (* ... and never grow the case.  This crash is independent of the block
     list and the flips, so both should shrink away entirely. *)
  Alcotest.(check bool)
    "blocks shrunk" true
    (List.length m.F.blocks <= List.length crash_case.F.blocks);
  let flips = function F.Bit_flips l -> List.length l | _ -> 0 in
  Alcotest.(check bool)
    "fault shrunk" true
    (flips m.F.fault <= flips crash_case.F.fault)

let test_case_json_roundtrip () =
  let cases =
    [
      crash_case;
      { crash_case with F.id = 1; scheme = "byte"; fault = F.No_fault };
      {
        crash_case with
        F.id = 2;
        protection = Scheme.Crc8;
        fault = F.Byte_sub { byte = 7; value = 0x5A };
      };
      {
        crash_case with
        F.id = 3;
        protection = Scheme.Crc16;
        blocks = [];
        fault = F.Truncate { bytes = 12 };
      };
    ]
  in
  List.iter
    (fun c ->
      match F.case_of_json (F.case_to_json c) with
      | Ok c' ->
          Alcotest.(check bool)
            (Printf.sprintf "case %d round-trips" c.F.id)
            true (c = c')
      | Error e -> Alcotest.failf "case %d: %s" c.F.id e)
    cases;
  match F.case_of_json (Json.Obj [ ("id", Json.int 1) ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "incomplete case accepted"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let replay_fixture path =
  let j =
    match Json.parse (read_file path) with
    | Ok j -> j
    | Error e -> Alcotest.failf "%s: unparseable: %s" path e
  in
  let expect =
    match Json.member "expect" j with
    | Some (Json.Str s) -> s
    | _ -> Alcotest.failf "%s: missing \"expect\"" path
  in
  let case =
    match Json.member "case" j with
    | Some cj -> (
        match F.case_of_json cj with
        | Ok c -> c
        | Error e -> Alcotest.failf "%s: bad case: %s" path e)
    | None -> Alcotest.failf "%s: missing \"case\"" path
  in
  let observed =
    match F.run_case case with None -> "none" | Some k -> F.kind_label k
  in
  Alcotest.(check string) (Filename.basename path) expect observed

let test_fixture_replay () =
  let dir = "fixtures" in
  let is_fuzz_fixture f =
    (* fixtures/ also holds non-fuzz data (perf_baseline.json); only the
       fuzz_*.json files are replayable cases. *)
    Filename.check_suffix f ".json"
    && String.length f >= 5
    && String.sub f 0 5 = "fuzz_"
  in
  let files =
    if Sys.file_exists dir && Sys.is_directory dir then
      Sys.readdir dir |> Array.to_list
      |> List.filter is_fuzz_fixture
      |> List.sort compare
      |> List.map (Filename.concat dir)
    else []
  in
  Alcotest.(check bool)
    "at least one checked-in fixture" true
    (List.length files > 0);
  List.iter replay_fixture files

let test_write_fixture () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "cccs_fuzz_fixtures_%d" (Unix.getpid ()))
  in
  let kind =
    match F.run_case crash_case with
    | Some k -> k
    | None -> Alcotest.fail "crashing case reported clean"
  in
  let finding = { F.case = crash_case; kind; minimized = true } in
  let path = F.write_fixture ~dir finding in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () ->
      Alcotest.(check bool) "json fixture exists" true (Sys.file_exists path);
      Alcotest.(check (array string))
        "the JSON fixture is the one file" [| Filename.basename path |]
        (Sys.readdir dir);
      (* The emitted fixture must itself replay. *)
      replay_fixture path;
      (* Same finding, same filename: campaigns overwrite, never pile up. *)
      let path2 = F.write_fixture ~dir finding in
      Alcotest.(check string) "stable filename" path path2)

let test_report_json_shape () =
  let r = F.run { small_spec with F.runs = 10 } in
  let j = F.report_to_json r in
  let str k =
    match Json.member k j with Some (Json.Str s) -> s | _ -> "<missing>"
  in
  let num k =
    match Json.member k j with Some (Json.Num n) -> n | _ -> nan
  in
  Alcotest.(check string) "schema" "cccs-fuzz/1" (str "schema");
  Alcotest.(check int) "seed echoed" small_spec.F.seed
    (int_of_float (num "seed"));
  Alcotest.(check int) "runs echoed" 10 (int_of_float (num "runs"));
  Alcotest.(check bool) "jobs echoed" true (num "jobs" >= 1.0);
  match Json.member "ok" j with
  | Some (Json.Bool b) ->
      Alcotest.(check bool) "ok mirrors findings" (r.F.findings = []) b
  | _ -> Alcotest.fail "missing ok"

(* [jobs] reports the pool that ran, not the one asked for: 3 cases
   never keep more than 3 domains busy, nor more than the machine has. *)
let test_report_jobs_used () =
  let r = F.run { small_spec with F.runs = 3; jobs = Some 64 } in
  let jobs =
    match Json.member "jobs" (F.report_to_json r) with
    | Some (Json.Num n) -> int_of_float n
    | _ -> Alcotest.fail "missing jobs"
  in
  Alcotest.(check bool) "at most 3 jobs" true (jobs <= 3);
  Alcotest.(check bool) "at most the cores" true
    (jobs <= Cccs.Parallel.cores ())

let suite =
  [
    Alcotest.test_case "determinism across jobs" `Quick
      test_determinism_across_jobs;
    Alcotest.test_case "clean campaign (seed 42)" `Quick test_clean_campaign;
    Alcotest.test_case "case exception barrier" `Quick test_case_barrier;
    Alcotest.test_case "delta minimization" `Quick test_minimize;
    Alcotest.test_case "case JSON round-trip" `Quick test_case_json_roundtrip;
    Alcotest.test_case "checked-in fixtures replay" `Quick test_fixture_replay;
    Alcotest.test_case "write_fixture" `Quick test_write_fixture;
    Alcotest.test_case "report JSON shape" `Quick test_report_json_shape;
    Alcotest.test_case "report jobs is the pool that ran" `Quick
      test_report_jobs_used;
  ]
