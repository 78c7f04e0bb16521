(* Domain-parallel sweep harness: ordering, error propagation, nested
   degradation, CCCS_JOBS parsing, and parallel = sequential equality on
   the real experiment and fault-campaign drivers. *)

let check = Alcotest.(check int)

let test_map_matches_list_map () =
  let xs = List.init 50 (fun i -> i - 7) in
  let f x = (x * x) - (3 * x) in
  let expect = List.map f xs in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d" jobs)
        expect
        (Cccs.Parallel.map ~jobs f xs))
    [ 1; 2; 3; 8; 64 ]

let test_map_edges () =
  Alcotest.(check (list int)) "empty" [] (Cccs.Parallel.map ~jobs:4 succ []);
  Alcotest.(check (list int)) "singleton" [ 2 ] (Cccs.Parallel.map ~jobs:4 succ [ 1 ]);
  Alcotest.(check (list int)) "more jobs than items" [ 2; 3 ]
    (Cccs.Parallel.map ~jobs:16 succ [ 1; 2 ])

let test_map_error_propagates () =
  let boom x = if x >= 3 then failwith (Printf.sprintf "boom%d" x) else x in
  (* Sequential (jobs=1) is fail-fast: the smallest-index failure
     re-raised verbatim. *)
  Alcotest.check_raises "sequential is fail-fast" (Failure "boom3") (fun () ->
      ignore (Cccs.Parallel.map ~jobs:1 boom [ 0; 1; 2; 3; 4; 5; 6; 7 ]));
  (* A parallel pool drains every item, so the re-raised smallest-index
     failure names all failing indices — deterministically, whatever the
     schedule.  ~force exercises real domains even on a 1-core machine. *)
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "all failing indices named (jobs=%d)" jobs)
        (Failure "boom3 [parallel: 5 items failed: 3,4,5,6,7]")
        (fun () ->
          ignore
            (Cccs.Parallel.map ~jobs ~force:true boom
               [ 0; 1; 2; 3; 4; 5; 6; 7 ])))
    [ 2; 4 ];
  (* A single failing item keeps its exception byte-identical to the
     sequential raise — no index suffix. *)
  Alcotest.check_raises "single failure stays verbatim" (Failure "boom3")
    (fun () ->
      ignore (Cccs.Parallel.map ~jobs:2 ~force:true boom [ 0; 1; 2; 3 ]))

let test_effective_jobs () =
  let cores = max 1 (Cccs.Parallel.cores ()) in
  (* The never-lose clamp: a jobs request degrades to the core count... *)
  check "clamped to cores" (min 4 cores)
    (Cccs.Parallel.effective_jobs ~jobs:4 100);
  (* ...unless forced (tests/benchmarks that must spawn real domains). *)
  check "force bypasses the core clamp" 4
    (Cccs.Parallel.effective_jobs ~force:true ~jobs:4 100);
  check "never more workers than items" 2
    (Cccs.Parallel.effective_jobs ~force:true ~jobs:4 2);
  check "max_jobs cap holds even forced" Cccs.Parallel.max_jobs
    (Cccs.Parallel.effective_jobs ~force:true ~jobs:1000 10_000)

let test_map_force_spawns_and_matches () =
  (* Forced domains on any machine still gather in input order. *)
  let xs = List.init 101 (fun i -> i) in
  let f x = (7 * x) + 1 in
  Alcotest.(check (list int))
    "forced parallel = List.map" (List.map f xs)
    (Cccs.Parallel.map ~jobs:4 ~force:true f xs)

let test_nested_degrades () =
  (* A parallel region inside a worker runs sequentially in place; the
     result is still the plain nested map. *)
  let expect =
    List.map (fun i -> List.map (fun j -> (10 * i) + j) [ 0; 1; 2 ]) [ 1; 2; 3; 4 ]
  in
  Alcotest.(check (list (list int)))
    "nested" expect
    (Cccs.Parallel.map ~jobs:2
       (fun i -> Cccs.Parallel.map ~jobs:2 (fun j -> (10 * i) + j) [ 0; 1; 2 ])
       [ 1; 2; 3; 4 ])

let test_default_jobs_env () =
  let with_env v k =
    Unix.putenv "CCCS_JOBS" v;
    let r = k () in
    Unix.putenv "CCCS_JOBS" "";
    r
  in
  (* The env request is additionally capped at the machine's recommended
     domain count, so an oversubscribed pool is never the default. *)
  let cores = max 1 (Cccs.Parallel.cores ()) in
  let cap n = min n (min Cccs.Parallel.max_jobs cores) in
  Alcotest.(check bool) "cores is positive" true (Cccs.Parallel.cores () >= 1);
  check "plain" (cap 3) (with_env "3" Cccs.Parallel.default_jobs);
  check "trimmed" (cap 5) (with_env " 5 " Cccs.Parallel.default_jobs);
  check "zero falls back" 1 (with_env "0" Cccs.Parallel.default_jobs);
  check "negative falls back" 1 (with_env "-4" Cccs.Parallel.default_jobs);
  check "unparsable falls back" 1 (with_env "lots" Cccs.Parallel.default_jobs);
  check "clamped to max_jobs and cores" (cap 9999)
    (with_env "9999" Cccs.Parallel.default_jobs)

(* The hard invariant behind every ?jobs parameter: a parallel sweep is
   structurally identical to the sequential one.  Caches are cleared
   between runs so the parallel pass cannot coast on memoized rows. *)
let test_fig5_parallel_equals_sequential () =
  Cccs.Experiments.clear_cache ();
  let seq = Cccs.Experiments.(sweep ~jobs:1 fig5_for) in
  Cccs.Experiments.clear_cache ();
  let par = Cccs.Experiments.(sweep ~jobs:2 fig5_for) in
  check "same row count" (List.length seq) (List.length par);
  Alcotest.(check bool) "rows identical" true (seq = par)

let test_faults_parallel_equals_sequential () =
  let spec =
    {
      Cccs.Faults.bench = "fir";
      seed = 7;
      flips = 8;
      retries = 2;
      protection = Encoding.Scheme.Crc8;
    }
  in
  let seq = Cccs.Faults.run ~jobs:1 spec in
  let par = Cccs.Faults.run ~jobs:3 spec in
  Alcotest.(check bool) "campaign reports identical" true (seq = par)

let suite =
  [
    Alcotest.test_case "map = List.map at any job count" `Quick
      test_map_matches_list_map;
    Alcotest.test_case "map edge cases" `Quick test_map_edges;
    Alcotest.test_case "map error propagation" `Quick test_map_error_propagates;
    Alcotest.test_case "effective_jobs clamping" `Quick test_effective_jobs;
    Alcotest.test_case "forced domains gather in order" `Quick
      test_map_force_spawns_and_matches;
    Alcotest.test_case "nested regions degrade" `Quick test_nested_degrades;
    Alcotest.test_case "CCCS_JOBS parsing" `Quick test_default_jobs_env;
    Alcotest.test_case "fig5 sweep: parallel = sequential" `Slow
      test_fig5_parallel_equals_sequential;
    Alcotest.test_case "fault campaign: parallel = sequential" `Slow
      test_faults_parallel_equals_sequential;
  ]
