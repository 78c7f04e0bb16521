(* Tests for the future-work extensions: gshare prediction and superblock
   fetch units. *)

let check = Alcotest.(check int)

(* --- gshare --- *)

let gshare_cfg bits =
  { Fetch.Config.default with Fetch.Config.predictor = Fetch.Config.Gshare bits }

let test_gshare_validation () =
  Alcotest.check_raises "history bits range"
    (Invalid_argument "Atb.create: history bits") (fun () ->
      ignore (Fetch.Atb.create (gshare_cfg 1) ~num_blocks:10))

let test_gshare_learns_alternation () =
  (* A branch that strictly alternates taken/not-taken: a 2-bit counter
     mispredicts forever; gshare locks on after warmup. *)
  let train_and_score cfg =
    let atb = Fetch.Atb.create cfg ~num_blocks:100 in
    ignore (Fetch.Atb.lookup atb 10);
    let correct = ref 0 in
    for i = 0 to 199 do
      let actual = if i mod 2 = 0 then 30 else 11 in
      if Fetch.Atb.predict atb 10 = actual then incr correct;
      Fetch.Atb.update atb 10 ~next:actual
    done;
    !correct
  in
  let two_bit = train_and_score Fetch.Config.default in
  let gshare = train_and_score (gshare_cfg 8) in
  Alcotest.(check bool)
    (Printf.sprintf "gshare (%d) beats 2-bit (%d) on alternation" gshare two_bit)
    true
    (gshare > two_bit && gshare > 150)

let test_gshare_reset () =
  let atb = Fetch.Atb.create (gshare_cfg 8) ~num_blocks:100 in
  ignore (Fetch.Atb.lookup atb 5);
  Fetch.Atb.update atb 5 ~next:50;
  Fetch.Atb.update atb 5 ~next:50;
  Fetch.Atb.reset atb;
  check "stats cleared" 0 (Fetch.Atb.hits atb);
  Alcotest.(check bool) "entry gone" false (Fetch.Atb.lookup atb 5 |> fun h -> h)

(* --- superblocks --- *)

(* A little program: 0 -> 1 (chainable), 1 cond-> 3, 2 (chainable from 1),
   3 jump-> 0.  Unit expected: {0,1,2}, {3}. *)
let sb_program () =
  let ldi i = Tepic.Op.ldi ~imm:0 ~dest:i () in
  let mk id ops = { Tepic.Program.id; mops = [ Tepic.Mop.make ops ] } in
  Tepic.Program.make ~name:"sb"
    [
      mk 0 [ ldi 1 ];
      mk 1 [ ldi 2; Tepic.Op.branch ~pred:1 ~opcode:Tepic.Opcode.BRCT ~target:3 () ];
      mk 2 [ ldi 3 ];
      mk 3 [ ldi 4; Tepic.Op.branch ~opcode:Tepic.Opcode.BR ~target:0 () ];
    ]

let test_superblock_formation () =
  let prog = sb_program () in
  let t = Fetch.Superblock.form prog in
  check "0 heads itself" 0 (Fetch.Superblock.head t 0);
  check "1 chains to 0" 0 (Fetch.Superblock.head t 1);
  check "2 chains through 1" 0 (Fetch.Superblock.head t 2);
  check "3 is a head (2 jumps away? no - 2 falls into 3 but 3 has preds {1,2})"
    3 (Fetch.Superblock.head t 3);
  Alcotest.(check (list int)) "unit blocks" [ 0; 1; 2 ]
    (Fetch.Superblock.unit_blocks t 0);
  let units, mean = Fetch.Superblock.stats t in
  check "two units" 2 units;
  Alcotest.(check bool) "mean blocks/unit" true (abs_float (mean -. 2.0) < 1e-9)

let test_superblock_no_chain_after_jump () =
  let ldi i = Tepic.Op.ldi ~imm:0 ~dest:i () in
  let mk id ops = { Tepic.Program.id; mops = [ Tepic.Mop.make ops ] } in
  let prog =
    Tepic.Program.make ~name:"sb2"
      [
        mk 0 [ ldi 1; Tepic.Op.branch ~opcode:Tepic.Opcode.BR ~target:1 () ];
        mk 1 [ ldi 2 ];
      ]
  in
  let t = Fetch.Superblock.form prog in
  (* 0 ends with an unconditional jump: even though 1's only pred is 0,
     there is no fall-through path, so no chain. *)
  check "no chain across BR" 1 (Fetch.Superblock.head t 1)

let test_superblock_sim_conserves_ops () =
  (* The unit-based simulation must deliver exactly the ops of the trace. *)
  let e =
    match Workloads.Suite.find "compress" with Some e -> e | None -> assert false
  in
  let r = Cccs.Workload_run.load e in
  let prog = r.Cccs.Workload_run.compiled.Cccs.Pipeline.program in
  let trace = r.Cccs.Workload_run.exec.Emulator.Exec.trace in
  let units = Fetch.Superblock.form prog in
  let cfg = Fetch.Config.default_base in
  let scheme = Encoding.Baseline.build prog in
  let att = Encoding.Att.build scheme ~line_bits:cfg.Fetch.Config.line_bits prog in
  let sb = Fetch.Superblock.run ~model:Fetch.Config.Base ~cfg ~scheme ~att units trace in
  check "ops conserved" (Emulator.Trace.total_ops trace) sb.Fetch.Sim.ops_delivered;
  check "mops conserved" (Emulator.Trace.total_mops trace) sb.Fetch.Sim.mops_delivered;
  Alcotest.(check bool) "fewer fetch events than block visits" true
    (sb.Fetch.Sim.block_visits < Emulator.Trace.length trace);
  Alcotest.(check bool) "ipc within issue width" true
    (sb.Fetch.Sim.ipc <= float_of_int Tepic.Mop.issue_width)

let test_superblock_head_errors () =
  let t = Fetch.Superblock.form (sb_program ()) in
  Alcotest.check_raises "non-head rejected"
    (Invalid_argument "Superblock.unit_blocks: not a head") (fun () ->
      ignore (Fetch.Superblock.unit_blocks t 1))

(* --- predictor experiment plumbing --- *)

let test_predictor_experiment_shape () =
  let rows = Cccs.Experiments.(sweep predictors_for) in
  check "eight rows" 8 (List.length rows);
  List.iter
    (fun (r : Cccs.Experiments.predictor_row) ->
      check "same traffic"
        r.Cccs.Experiments.two_bit.Fetch.Sim.block_visits
        r.Cccs.Experiments.gshare.Fetch.Sim.block_visits;
      check "same ops"
        r.Cccs.Experiments.two_bit.Fetch.Sim.ops_delivered
        r.Cccs.Experiments.gshare.Fetch.Sim.ops_delivered)
    rows

let test_superblock_experiment_shape () =
  let rows = Cccs.Experiments.(sweep superblocks_for) in
  check "eight rows" 8 (List.length rows);
  List.iter
    (fun (r : Cccs.Experiments.superblock_row) ->
      Alcotest.(check bool) "units are non-trivial" true
        (r.Cccs.Experiments.mean_unit_blocks > 1.1);
      check "sb conserves ops"
        r.Cccs.Experiments.bb_base.Fetch.Sim.ops_delivered
        r.Cccs.Experiments.sb_base.Fetch.Sim.ops_delivered)
    rows

(* Superblock decomposition invariant: every trace decomposes into unit
   visits that each start at a head and follow unit order. *)
let prop_superblock_decomposition =
  QCheck.Test.make ~name:"superblock trace decomposition" ~count:30
    (QCheck.make (Gen_ops.program ())) (fun prog ->
      let t = Fetch.Superblock.form prog in
      let n = Tepic.Program.num_blocks prog in
      (* Every block belongs to exactly one unit, reachable from its head. *)
      List.init n Fun.id
      |> List.for_all (fun b ->
             let h = Fetch.Superblock.head t b in
             List.mem b (Fetch.Superblock.unit_blocks t h)))

(* --- prefetch --- *)

let test_prefetch_reduces_demand_misses () =
  let e =
    match Workloads.Suite.find "li" with Some e -> e | None -> assert false
  in
  let r = Cccs.Workload_run.load e in
  let prog = r.Cccs.Workload_run.compiled.Cccs.Pipeline.program in
  let trace = r.Cccs.Workload_run.exec.Emulator.Exec.trace in
  let scheme = Encoding.Baseline.build prog in
  let run prefetch_next =
    let cfg = { Fetch.Config.default_base with Fetch.Config.prefetch_next } in
    let att =
      Encoding.Att.build scheme ~line_bits:cfg.Fetch.Config.line_bits prog
    in
    Fetch.Sim.run ~model:Fetch.Config.Base ~cfg ~scheme ~att trace
  in
  let off = run false and on = run true in
  Alcotest.(check bool)
    (Printf.sprintf "prefetch lowers demand misses (%d -> %d)"
       off.Fetch.Sim.l1_misses on.Fetch.Sim.l1_misses)
    true
    (on.Fetch.Sim.l1_misses < off.Fetch.Sim.l1_misses);
  Alcotest.(check bool) "prefetch improves ipc" true
    (on.Fetch.Sim.ipc >= off.Fetch.Sim.ipc);
  Alcotest.(check int) "same work" off.Fetch.Sim.ops_delivered
    on.Fetch.Sim.ops_delivered

(* --- profile-guided speculation --- *)

let test_profile_guided_correct () =
  let e =
    match Workloads.Suite.find "compress" with Some e -> e | None -> assert false
  in
  let p =
    match e.Workloads.Suite.profile with
    | Some p -> Cccs.Workload_run.calibrate p
    | None -> assert false
  in
  let w = Workloads.Gen.generate p in
  let c = Cccs.Pipeline.compile ~profile_guided:true w in
  let res = Emulator.Exec.run ~max_blocks:3_000_000 c.Cccs.Pipeline.program in
  let ref_res =
    Emulator.Ref_interp.run ~max_blocks:3_000_000 c.Cccs.Pipeline.alloc_cfg
  in
  Alcotest.(check bool) "pgo memory" true
    (Emulator.Ref_interp.mem_checksum ref_res
    = Emulator.Machine.mem_checksum res.Emulator.Exec.machine);
  Alcotest.(check bool) "pgo trace" true
    (Emulator.Trace.to_array res.Emulator.Exec.trace
    = Emulator.Trace.to_array ref_res.Emulator.Ref_interp.trace);
  Alcotest.(check bool) "still speculates" true (c.Cccs.Pipeline.hoisted > 0)

let test_profile_guided_deterministic () =
  let w = Workloads.Kernels.fir ~taps:8 ~samples:16 in
  let a = Cccs.Pipeline.compile ~profile_guided:true w in
  let b = Cccs.Pipeline.compile ~profile_guided:true w in
  Alcotest.(check int) "same hoist count" a.Cccs.Pipeline.hoisted
    b.Cccs.Pipeline.hoisted;
  Alcotest.(check bool) "same program" true
    (Tepic.Program.baseline_image a.Cccs.Pipeline.program
    = Tepic.Program.baseline_image b.Cccs.Pipeline.program)

let suite =
  [
    Alcotest.test_case "gshare: validation" `Quick test_gshare_validation;
    Alcotest.test_case "gshare: learns alternating branches" `Quick
      test_gshare_learns_alternation;
    Alcotest.test_case "gshare: reset" `Quick test_gshare_reset;
    Alcotest.test_case "superblock: formation" `Quick test_superblock_formation;
    Alcotest.test_case "superblock: no chain across jumps" `Quick
      test_superblock_no_chain_after_jump;
    Alcotest.test_case "superblock: simulation conserves work" `Slow
      test_superblock_sim_conserves_ops;
    Alcotest.test_case "superblock: head errors" `Quick test_superblock_head_errors;
    Alcotest.test_case "predictor experiment" `Slow test_predictor_experiment_shape;
    Alcotest.test_case "superblock experiment" `Slow
      test_superblock_experiment_shape;
    QCheck_alcotest.to_alcotest prop_superblock_decomposition;
    Alcotest.test_case "prefetch reduces demand misses" `Slow
      test_prefetch_reduces_demand_misses;
    Alcotest.test_case "profile-guided speculation: correct" `Slow
      test_profile_guided_correct;
    Alcotest.test_case "profile-guided speculation: deterministic" `Quick
      test_profile_guided_deterministic;
  ]
