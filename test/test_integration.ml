(* End-to-end integration tests.

   These tie the whole system together and pin the paper's qualitative
   results:
   - the scheduled VLIW program computes exactly what the sequential IR
     does (differential test through the whole back end);
   - every encoding scheme reproduces every benchmark bit-exactly;
   - the Figure 5 / 13 / 14 shapes match the paper. *)

let check = Alcotest.(check int)

let differential_benches = [ "compress"; "li"; "go"; "fir"; "dot_product" ]

let test_differential () =
  List.iter
    (fun name ->
      let e =
        match Workloads.Suite.find name with Some e -> e | None -> assert false
      in
      let r = Cccs.Workload_run.load e in
      let c = r.Cccs.Workload_run.compiled in
      let res = r.Cccs.Workload_run.exec in
      Alcotest.(check bool) (name ^ " terminates") true
        (res.Emulator.Exec.stop = Emulator.Exec.Fell_through);
      let ref_res =
        Emulator.Ref_interp.run ~max_blocks:3_000_000 c.Cccs.Pipeline.alloc_cfg
      in
      Alcotest.(check bool) (name ^ " memory") true
        (Emulator.Ref_interp.mem_checksum ref_res
        = Emulator.Machine.mem_checksum res.Emulator.Exec.machine);
      Alcotest.(check bool) (name ^ " control-flow trace") true
        (Emulator.Trace.to_array res.Emulator.Exec.trace
        = Emulator.Trace.to_array ref_res.Emulator.Ref_interp.trace))
    differential_benches

let test_schemes_verify_on_all_benchmarks () =
  List.iter
    (fun r ->
      let s = Cccs.Experiments.schemes_of r in
      let prog = r.Cccs.Workload_run.compiled.Cccs.Pipeline.program in
      Encoding.Scheme.verify s.Cccs.Experiments.base prog;
      Encoding.Scheme.verify s.Cccs.Experiments.byte prog;
      Encoding.Scheme.verify s.Cccs.Experiments.full prog;
      Encoding.Scheme.verify s.Cccs.Experiments.tailored prog;
      List.iter
        (fun (_, sc) -> Encoding.Scheme.verify sc prog)
        s.Cccs.Experiments.streams)
    (Cccs.Workload_run.load_spec ())

let test_fig5_shape () =
  let rows = Cccs.Experiments.(sweep fig5_for) in
  check "eight benchmarks" 8 (List.length rows);
  List.iter
    (fun (row : Cccs.Experiments.fig5_row) ->
      let get name = List.assoc name row.Cccs.Experiments.ratios in
      Alcotest.(check bool) (row.Cccs.Experiments.bench ^ ": base = 1") true
        (abs_float (get "base" -. 1.0) < 1e-9);
      (* Full is the best compressor, in the paper's ~30% region. *)
      Alcotest.(check bool)
        (Printf.sprintf "%s: full %.3f in (0.15, 0.45)"
           row.Cccs.Experiments.bench (get "full"))
        true
        (get "full" > 0.15 && get "full" < 0.45);
      Alcotest.(check bool) "full beats everything" true
        (List.for_all
           (fun (n, v) -> n = "full" || get "full" <= v +. 1e-9)
           row.Cccs.Experiments.ratios);
      (* Tailored lands in the paper's ~64% region. *)
      Alcotest.(check bool)
        (Printf.sprintf "%s: tailored %.3f in (0.5, 0.8)"
           row.Cccs.Experiments.bench (get "tailored"))
        true
        (get "tailored" > 0.5 && get "tailored" < 0.8))
    rows

let test_fig7_att_overhead () =
  List.iter
    (fun (row : Cccs.Experiments.fig7_row) ->
      List.iter
        (fun (name, total, ov) ->
          Alcotest.(check bool) (name ^ " total covers code") true
            (total > 0);
          if name <> "base" then
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s ATT overhead %.3f sane"
                 row.Cccs.Experiments.bench name ov)
              true
              (ov > 0.01 && ov < 0.6))
        row.Cccs.Experiments.schemes_total;
      Alcotest.(check bool) "ATB miss rate bounded" true
        (row.Cccs.Experiments.atb_miss_rate < 0.7))
    Cccs.Experiments.(sweep fig7_for);
  (* The paper reports very low ATB contention; our synthetic traces sweep
     the whole hot loop every iteration, so reuse distances are flatter — the
     mean still stays low (see EXPERIMENTS.md). *)
  let rows = Cccs.Experiments.(sweep fig7_for) in
  let mean =
    List.fold_left (fun a r -> a +. r.Cccs.Experiments.atb_miss_rate) 0. rows
    /. float_of_int (List.length rows)
  in
  Alcotest.(check bool) "mean ATB miss rate low" true (mean < 0.4)

let test_fig10_shape () =
  let rows = Cccs.Experiments.(sweep fig10_for) in
  List.iter
    (fun (row : Cccs.Experiments.fig10_row) ->
      let get name = List.assoc name row.Cccs.Experiments.decoders in
      (* Byte-wise has the smallest Huffman decoder; tailored has none. *)
      Alcotest.(check bool) "tailored decoder-free" true
        ((get "tailored").Encoding.Scheme.transistors = 0);
      List.iter
        (fun (name, d) ->
          if name <> "tailored" && name <> "byte" then
            Alcotest.(check bool)
              (Printf.sprintf "%s: byte <= %s" row.Cccs.Experiments.bench name)
              true
              ((get "byte").Encoding.Scheme.transistors
              <= d.Encoding.Scheme.transistors))
        row.Cccs.Experiments.decoders)
    rows

let test_fig13_shape () =
  let rows = Cccs.Experiments.(sweep fig13_for) in
  check "eight benchmarks" 8 (List.length rows);
  let losers = [ "compress"; "go"; "ijpeg"; "m88ksim" ] in
  List.iter
    (fun (row : Cccs.Experiments.fig13_row) ->
      let b = row.Cccs.Experiments.bench in
      let ideal = row.Cccs.Experiments.ideal.Fetch.Sim.ipc in
      let base = row.Cccs.Experiments.base.Fetch.Sim.ipc in
      let comp = row.Cccs.Experiments.compressed.Fetch.Sim.ipc in
      let tail = row.Cccs.Experiments.tailored.Fetch.Sim.ipc in
      Alcotest.(check bool) (b ^ ": ideal dominates") true
        (ideal >= base && ideal >= comp && ideal >= tail);
      (* The paper's headline: these four lose under Compressed. *)
      if List.mem b losers then
        Alcotest.(check bool) (b ^ ": compressed < base (paper)") true
          (comp < base)
      else
        Alcotest.(check bool) (b ^ ": compressed > base (paper)") true
          (comp > base))
    rows;
  let mean f =
    List.fold_left (fun a r -> a +. f r) 0. rows /. float_of_int (List.length rows)
  in
  let base = mean (fun r -> r.Cccs.Experiments.base.Fetch.Sim.ipc) in
  let comp = mean (fun r -> r.Cccs.Experiments.compressed.Fetch.Sim.ipc) in
  let tail = mean (fun r -> r.Cccs.Experiments.tailored.Fetch.Sim.ipc) in
  Alcotest.(check bool) "compressed exceeds base on average (paper)" true
    (comp > base);
  Alcotest.(check bool) "tailored exceeds base on average (paper)" true
    (tail > base);
  Alcotest.(check bool) "tailored exceeds compressed on average (paper)" true
    (tail > comp)

let test_fig14_shape () =
  List.iter
    (fun (row : Cccs.Experiments.fig14_row) ->
      let get name = List.assoc name row.Cccs.Experiments.flips in
      Alcotest.(check bool)
        (row.Cccs.Experiments.bench ^ ": compressed flips < base")
        true
        (get "compressed" < get "base");
      Alcotest.(check bool)
        (row.Cccs.Experiments.bench ^ ": tailored flips < base")
        true
        (get "tailored" < get "base"))
    Cccs.Experiments.(sweep (fun r -> fig14_of (fig13_for r)))

let test_workload_dynamic_sizes () =
  (* Calibration keeps executed sizes comparable across benchmarks. *)
  List.iter
    (fun r ->
      let dyn =
        Emulator.Trace.total_ops r.Cccs.Workload_run.exec.Emulator.Exec.trace
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d executed ops in band" r.Cccs.Workload_run.name dyn)
        true
        (dyn > 300_000 && dyn < 3_000_000))
    (Cccs.Workload_run.load_spec ())

(* Property: the full pipeline is semantics-preserving on randomly
   parameterized workloads, not just the tuned suite. *)
let prop_random_profiles_differential =
  let gen =
    QCheck.Gen.(
      let* seed = int_range 1 100_000 in
      let* static_ops = int_range 300 1500 in
      let* noise = float_bound_exclusive 1.0 in
      let* fp_ratio = float_bound_exclusive 0.2 in
      let* mem_ratio = float_bound_exclusive 0.4 in
      let* num_callees = int_range 0 3 in
      let* loop_nest = int_range 0 3 in
      return
        {
          Workloads.Spec.compress with
          Workloads.Profile.name = "prop";
          seed;
          static_ops;
          noise;
          fp_ratio;
          mem_ratio;
          num_callees;
          loop_nest;
          outer_trips = 4;
          dyn_ops_target = 20_000;
        })
  in
  QCheck.Test.make ~name:"random profiles: pipeline differential" ~count:8
    (QCheck.make gen) (fun p ->
      Workloads.Profile.validate p;
      let w = Workloads.Gen.generate p in
      let c = Cccs.Pipeline.compile w in
      let res = Emulator.Exec.run ~max_blocks:500_000 c.Cccs.Pipeline.program in
      let ref_res =
        Emulator.Ref_interp.run ~max_blocks:500_000 c.Cccs.Pipeline.alloc_cfg
      in
      Emulator.Ref_interp.mem_checksum ref_res
      = Emulator.Machine.mem_checksum res.Emulator.Exec.machine
      && Emulator.Trace.to_array res.Emulator.Exec.trace
         = Emulator.Trace.to_array ref_res.Emulator.Ref_interp.trace)

(* Property: every scheme roundtrips randomly parameterized programs. *)
let prop_random_profiles_schemes =
  let gen =
    QCheck.Gen.(
      let* seed = int_range 1 100_000 in
      return
        {
          Workloads.Spec.go with
          Workloads.Profile.name = "prop-enc";
          seed;
          static_ops = 600;
          outer_trips = 2;
          dyn_ops_target = 5_000;
        })
  in
  QCheck.Test.make ~name:"random profiles: schemes roundtrip" ~count:6
    (QCheck.make gen) (fun p ->
      let w = Workloads.Gen.generate p in
      let prog = (Cccs.Pipeline.compile w).Cccs.Pipeline.program in
      List.for_all
        (fun build ->
          let s = build prog in
          Encoding.Scheme.verify s prog;
          true)
        [
          Encoding.Baseline.build;
          Encoding.Byte_huffman.build;
          Encoding.Full_huffman.build;
          Encoding.Tailored.build;
          Encoding.Dictionary.build;
          Encoding.Stream_huffman.build;
        ])

(* The decode-back and differential check behind `cccs verify` covers
   every scheme, the five extra stream configurations included. *)
let test_verify_covers_every_scheme () =
  let e =
    match Workloads.Suite.find "fir" with Some e -> e | None -> assert false
  in
  let v = Cccs.Experiments.verify (Cccs.Workload_run.load e) in
  Alcotest.(check (list string))
    "every scheme, in order"
    [
      "base"; "byte"; "stream"; "stream_1"; "stream_2"; "stream_3";
      "stream_4"; "stream_5"; "full"; "tailored"; "dict";
    ]
    (List.map fst v.Cccs.Experiments.decode_back);
  Alcotest.(check bool) "every scheme decodes back" true
    (List.for_all snd v.Cccs.Experiments.decode_back);
  Alcotest.(check bool) "memory" true v.Cccs.Experiments.memory_ok;
  Alcotest.(check bool) "trace" true v.Cccs.Experiments.trace_ok

let suite =
  [
    Alcotest.test_case "differential: scheduled vs sequential" `Slow
      test_differential;
    Alcotest.test_case "all schemes verify on all benchmarks" `Slow
      test_schemes_verify_on_all_benchmarks;
    Alcotest.test_case "Figure 5 shape" `Slow test_fig5_shape;
    Alcotest.test_case "Figure 7 ATT overhead" `Slow test_fig7_att_overhead;
    Alcotest.test_case "Figure 10 shape" `Slow test_fig10_shape;
    Alcotest.test_case "Figure 13 shape" `Slow test_fig13_shape;
    Alcotest.test_case "Figure 14 shape" `Slow test_fig14_shape;
    Alcotest.test_case "dynamic size calibration" `Slow
      test_workload_dynamic_sizes;
    QCheck_alcotest.to_alcotest prop_random_profiles_differential;
    QCheck_alcotest.to_alcotest prop_random_profiles_schemes;
    Alcotest.test_case "shared verify covers all 11 schemes" `Quick
      test_verify_covers_every_scheme;
  ]
