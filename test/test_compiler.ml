(* Compiler back-end tests: liveness, treegions, register allocation,
   scheduling and layout.  Schedule-correctness properties are checked
   structurally here; end-to-end semantic equivalence is covered by the
   integration suite's differential tests. *)

open Vliw_compiler

let check = Alcotest.(check int)
let v = Ir.vgpr
let u i = Ir.unguarded i
let add d a b = u (Ir.Alu { opcode = Tepic.Opcode.ADD; dst = d; src1 = a; src2 = b })
let ldi d imm = u (Ir.Ldi { dst = d; imm })

let bb id insts term = { Cfg.id; insts; term }

(* A diamond: 0 -> (1 | 2) -> 3, with a value defined in 0, modified in the
   arms, used in 3. *)
let diamond () =
  Cfg.make ~name:"diamond"
    [
      bb 0
        [ ldi (v 1) 5; u (Ir.Cmpp { opcode = Tepic.Opcode.CMPP_LT; dst = Ir.vpr 1; src1 = v 1; src2 = v 1 }) ]
        (Cfg.Cond { on_true = false; pred = Ir.vpr 1; target = 2 });
      bb 1 [ add (v 2) (v 1) (v 1) ] (Cfg.Jump 3);
      bb 2 [ add (v 2) (v 1) (v 1); add (v 2) (v 2) (v 1) ] Cfg.Fallthrough;
      bb 3 [ add (v 3) (v 2) (v 1) ] Cfg.Fallthrough;
    ]

let test_liveness_diamond () =
  let cfg = diamond () in
  let live = Liveness.analyze cfg in
  Alcotest.(check bool) "v1 live into both arms" true
    (Liveness.VSet.mem (v 1) live.Liveness.live_in.(1)
    && Liveness.VSet.mem (v 1) live.Liveness.live_in.(2));
  Alcotest.(check bool) "v2 live into join" true
    (Liveness.VSet.mem (v 2) live.Liveness.live_in.(3));
  Alcotest.(check bool) "v2 not live into entry" false
    (Liveness.VSet.mem (v 2) live.Liveness.live_in.(0));
  Alcotest.(check bool) "v3 dead at exit" false
    (Liveness.VSet.mem (v 3) live.Liveness.live_out.(3))

let test_liveness_loop () =
  (* 0: init; 1: body uses+redefs acc; latch loops to 1; 2: uses acc. *)
  let cfg =
    Cfg.make ~name:"loop"
      [
        bb 0 [ ldi (v 1) 0; ldi (v 9) 3 ] Cfg.Fallthrough;
        bb 1 [ add (v 1) (v 1) (v 1) ] (Cfg.Loop { counter = v 9; target = 1 });
        bb 2 [ add (v 2) (v 1) (v 1) ] Cfg.Fallthrough;
      ]
  in
  let live = Liveness.analyze cfg in
  Alcotest.(check bool) "acc live around the back edge" true
    (Liveness.VSet.mem (v 1) live.Liveness.live_out.(1));
  Alcotest.(check bool) "counter live at latch" true
    (Liveness.VSet.mem (v 9) live.Liveness.live_in.(1))

let test_guarded_def_keeps_old_value_live () =
  (* A predicated def may not kill: the old value can flow through. *)
  let p = Ir.vpr 2 in
  let cfg =
    Cfg.make ~name:"guard"
      [
        bb 0
          [
            ldi (v 1) 7;
            u (Ir.Cmpp { opcode = Tepic.Opcode.CMPP_EQ; dst = p; src1 = v 1; src2 = v 1 });
            Ir.guarded ~pred:p (Ir.Ldi { dst = v 1; imm = 9 });
          ]
          Cfg.Fallthrough;
        bb 1 [ add (v 2) (v 1) (v 1) ] Cfg.Fallthrough;
      ]
  in
  let live = Liveness.analyze cfg in
  Alcotest.(check bool) "guarded def does not kill" true
    (Liveness.VSet.mem (v 1) live.Liveness.live_in.(1))

(* --- Treegion formation --- *)

let test_treegion_diamond () =
  let cfg = diamond () in
  let regions = Treegion.form cfg in
  (* Arms join the root's region; the join block (2 preds) starts fresh. *)
  let region_of = Treegion.region_of regions (Cfg.num_blocks cfg) in
  check "arm 1 with root" region_of.(0) region_of.(1);
  check "arm 2 with root" region_of.(0) region_of.(2);
  Alcotest.(check bool) "join is a new region" true
    (region_of.(3) <> region_of.(0));
  Alcotest.(check (option int)) "parent of arm" (Some 0)
    (Treegion.parent_in_region regions 1)

let test_treegion_back_edge_excluded () =
  let cfg =
    Cfg.make ~name:"loop"
      [
        bb 0 [ ldi (v 9) 3 ] Cfg.Fallthrough;
        bb 1 [ add (v 1) (v 1) (v 1) ] (Cfg.Loop { counter = v 9; target = 1 });
        bb 2 [ ldi (v 2) 0 ] Cfg.Fallthrough;
      ]
  in
  let regions = Treegion.form cfg in
  let region_of = Treegion.region_of regions (Cfg.num_blocks cfg) in
  (* Block 1 has preds {0, 1}: the self back-edge forces a new region. *)
  Alcotest.(check bool) "loop head is a root" true (region_of.(1) = 1);
  (* Loop exit has single pred (the latch) and joins it. *)
  check "exit joins latch region" region_of.(1) region_of.(2)

let test_treegion_stats () =
  let regions = Treegion.form (diamond ()) in
  let count, largest, mean = Treegion.stats regions in
  check "regions" 2 count;
  check "largest" 3 largest;
  Alcotest.(check bool) "mean" true (abs_float (mean -. 2.0) < 1e-9)

(* --- Regalloc --- *)

let window cls _group =
  match cls with
  | Tepic.Reg.Gpr -> [ 0; 1; 2; 3; 4; 5 ]
  | Tepic.Reg.Fpr -> [ 0; 1; 2; 3 ]
  | Tepic.Reg.Pr -> [ 1; 2; 3 ]

let test_regalloc_basic () =
  let cfg = diamond () in
  let r = Regalloc.allocate ~allowed:window ~spill_base:1000 cfg in
  check "no spills needed" 0 r.Regalloc.spill_slots;
  (* All registers physical and within the window. *)
  Array.iter
    (fun b ->
      List.iter
        (fun g ->
          List.iter
            (fun (x : Ir.vreg) ->
              Alcotest.(check bool) "in window" true
                (List.mem x.Ir.vid (window x.Ir.vcls 0)))
            ((match Ir.defs g.Ir.inst with Some d -> [ d ] | None -> [])
            @ Ir.uses_guarded g))
        b.Cfg.insts)
    r.Regalloc.cfg.Cfg.blocks

(* Allocation must never assign one register to two values that are
   simultaneously live.  We check it semantically: interpret the original
   and the allocated CFG and compare memory. *)
let test_regalloc_preserves_semantics () =
  let store addr data = u (Ir.Store { opcode = Tepic.Opcode.SW; addr; data }) in
  (* Uses more simultaneous values than a direct 1:1 fit, forcing reuse. *)
  let cfg =
    Cfg.make ~name:"pressure"
      [
        bb 0
          [
            ldi (v 1) 10; ldi (v 2) 20; ldi (v 3) 30; ldi (v 4) 40;
            add (v 5) (v 1) (v 2);
            add (v 6) (v 3) (v 4);
            add (v 7) (v 5) (v 6);
            ldi (v 8) 100;
            store (v 8) (v 7);
          ]
          Cfg.Fallthrough;
      ]
  in
  let before = Emulator.Ref_interp.run cfg in
  let r = Regalloc.allocate ~allowed:window ~spill_base:1000 cfg in
  let after = Emulator.Ref_interp.run r.Regalloc.cfg in
  check "same memory" before.Emulator.Ref_interp.mem.(100)
    after.Emulator.Ref_interp.mem.(100);
  check "result value" 100 before.Emulator.Ref_interp.mem.(100)

let test_regalloc_spill () =
  (* 10 simultaneously live values in a 6-register window force spills,
     and the result must still compute correctly. *)
  let n = 10 in
  let defs = List.init n (fun i -> ldi (v (i + 1)) (i + 1)) in
  let sums =
    List.init (n - 1) (fun i -> add (v (n + 1)) (v (i + 1)) (v (n + 1)))
  in
  let tail =
    [
      ldi (v 100) 500;
      u (Ir.Store { opcode = Tepic.Opcode.SW; addr = v 100; data = v (n + 1) });
    ]
  in
  let cfg =
    Cfg.make ~name:"spill"
      [ bb 0 (defs @ [ ldi (v (n + 1)) 0 ] @ sums @ tail) Cfg.Fallthrough ]
  in
  let before = Emulator.Ref_interp.run cfg in
  let r = Regalloc.allocate ~allowed:window ~spill_base:1000 cfg in
  Alcotest.(check bool) "spilled something" true (r.Regalloc.spill_slots > 0);
  let after = Emulator.Ref_interp.run r.Regalloc.cfg in
  check "spilled code computes the same sum"
    before.Emulator.Ref_interp.mem.(500) after.Emulator.Ref_interp.mem.(500);
  check "sum value" 45 after.Emulator.Ref_interp.mem.(500)

let test_regalloc_precolored () =
  let link = v 999 in
  let cfg =
    Cfg.make ~name:"call"
      [
        bb 0 [ ldi (v 1) 1 ] (Cfg.Call { target = 1; link });
        bb 1 [ ldi (v 2) 2 ] (Cfg.Return { link });
      ]
  in
  let r =
    Regalloc.allocate ~allowed:window ~precolored:[ (link, 31) ]
      ~spill_base:1000 cfg
  in
  (match (Cfg.block r.Regalloc.cfg 0).Cfg.term with
  | Cfg.Call { link; _ } -> check "link got its color" 31 link.Ir.vid
  | _ -> Alcotest.fail "terminator changed")

let test_regalloc_groups () =
  (* Two groups with disjoint windows; check values land in their window. *)
  let wins cls g =
    match (cls, g) with
    | Tepic.Reg.Gpr, 0 -> [ 0; 1; 2 ]
    | Tepic.Reg.Gpr, _ -> [ 10; 11; 12 ]
    | _, _ -> [ 1; 2; 3 ]
  in
  let cfg =
    Cfg.make ~name:"groups"
      [
        bb 0 [ ldi (v 1) 1; add (v 2) (v 1) (v 1) ] Cfg.Fallthrough;
        bb 1 [ ldi (v 50) 5; add (v 51) (v 50) (v 50) ] Cfg.Fallthrough;
      ]
  in
  let r =
    Regalloc.allocate ~allowed:wins
      ~group_of_block:(fun b -> if b = 0 then 0 else 1)
      ~spill_base:1000 cfg
  in
  Array.iter
    (fun (b : Cfg.bb) ->
      let expect = if b.Cfg.id = 0 then [ 0; 1; 2 ] else [ 10; 11; 12 ] in
      List.iter
        (fun g ->
          match Ir.defs g.Ir.inst with
          | Some d when d.Ir.vcls = Tepic.Reg.Gpr ->
              Alcotest.(check bool) "window respected" true
                (List.mem d.Ir.vid expect)
          | _ -> ())
        b.Cfg.insts)
    r.Regalloc.cfg.Cfg.blocks

(* --- Scheduling --- *)

let allocated_diamond () =
  (Regalloc.allocate ~allowed:window ~spill_base:1000 (diamond ())).Regalloc.cfg

(* Structural invariants of any schedule. *)
let schedule_invariants cfg (sched : Schedule.t) =
  let n = Cfg.num_blocks cfg in
  for b = 0 to n - 1 do
    let cycles = Schedule.block_cycles sched b in
    (* Same multiset of instructions (modulo speculation moving some). *)
    List.iter
      (fun cycle ->
        Alcotest.(check bool) "issue width" true
          (List.length cycle <= Tepic.Mop.issue_width);
        Alcotest.(check bool) "memory units" true
          (List.length (List.filter (fun g -> Ir.is_memory g.Ir.inst) cycle)
          <= Tepic.Mop.mem_units);
        (* No same-cycle WAW. *)
        let defs =
          List.filter_map (fun g -> Ir.defs g.Ir.inst) cycle
        in
        Alcotest.(check bool) "no same-cycle WAW" true
          (List.length defs = List.length (List.sort_uniq compare defs)))
      cycles
  done

let test_schedule_respects_resources () =
  let cfg = allocated_diamond () in
  schedule_invariants cfg (Schedule.run ~speculate:false cfg);
  schedule_invariants cfg (Schedule.run ~speculate:true cfg)

let test_schedule_raw_ordering () =
  (* b = a+1 ; c = b+1 must occupy increasing cycles. *)
  let cfg =
    Cfg.make ~name:"chain"
      [
        bb 0
          [ ldi (v 1) 1; add (v 2) (v 1) (v 1); add (v 3) (v 2) (v 2) ]
          Cfg.Fallthrough;
      ]
  in
  let cfg = (Regalloc.allocate ~allowed:window ~spill_base:1000 cfg).Regalloc.cfg in
  let sched = Schedule.run ~speculate:false cfg in
  let cycles = Schedule.block_cycles sched 0 in
  check "three serialized cycles" 3 (List.length cycles);
  List.iter (fun c -> check "one op per cycle" 1 (List.length c)) cycles

let test_schedule_war_can_share_cycle () =
  (* read of r1 and write of r1 may issue together (read-old VLIW). *)
  let cfg =
    Cfg.make ~name:"war"
      [
        bb 0
          [ ldi (v 1) 1; ldi (v 9) 9 ] Cfg.Fallthrough;
        bb 1
          [ add (v 2) (v 1) (v 1); add (v 1) (v 9) (v 9) ]
          Cfg.Fallthrough;
      ]
  in
  let cfg = (Regalloc.allocate ~allowed:window ~spill_base:1000 cfg).Regalloc.cfg in
  let sched = Schedule.run ~speculate:false cfg in
  check "WAR pair shares one cycle" 1
    (List.length (Schedule.block_cycles sched 1))

let test_schedule_ilp_reported () =
  let cfg = allocated_diamond () in
  let sched = Schedule.run cfg in
  Alcotest.(check bool) "ilp positive" true (Schedule.ilp sched > 0.)

(* --- Layout --- *)

let test_layout_wellformed () =
  let cfg = allocated_diamond () in
  let sched = Schedule.run cfg in
  let prog = Layout.build sched in
  check "same block count" (Cfg.num_blocks cfg) (Tepic.Program.num_blocks prog);
  (* Terminators lowered: block 0 ends with BRCF, block 1 with BR. *)
  (match Tepic.Program.terminator (Tepic.Program.block prog 0) with
  | Some op -> Alcotest.(check bool) "brcf" true (Tepic.Op.opcode op = Tepic.Opcode.BRCF)
  | None -> Alcotest.fail "missing terminator");
  (match Tepic.Program.terminator (Tepic.Program.block prog 1) with
  | Some op -> Alcotest.(check bool) "br" true (Tepic.Op.opcode op = Tepic.Opcode.BR)
  | None -> Alcotest.fail "missing terminator")

let test_layout_pads_empty_block () =
  let cfg = Cfg.make ~name:"empty" [ bb 0 [] Cfg.Fallthrough ] in
  let sched = Schedule.run cfg in
  let prog = Layout.build sched in
  Alcotest.(check bool) "padded" true
    (Tepic.Program.block_num_ops (Tepic.Program.block prog 0) >= 1)

let test_layout_branch_not_with_its_producer () =
  (* The cmpp feeding the branch must not share the branch's cycle. *)
  let p = Ir.vpr 1 in
  let cfg =
    Cfg.make ~name:"close-cmpp"
      [
        bb 0
          [ ldi (v 1) 1;
            u (Ir.Cmpp { opcode = Tepic.Opcode.CMPP_LT; dst = p; src1 = v 1; src2 = v 1 }) ]
          (Cfg.Cond { on_true = true; pred = p; target = 1 });
        bb 1 [ ldi (v 2) 2 ] Cfg.Fallthrough;
      ]
  in
  let cfg = (Regalloc.allocate ~allowed:window ~spill_base:1000 cfg).Regalloc.cfg in
  let prog = Layout.build (Schedule.run ~speculate:false cfg) in
  let b0 = Tepic.Program.block prog 0 in
  let last_mop = List.nth b0.Tepic.Program.mops (List.length b0.Tepic.Program.mops - 1) in
  let branch_pred =
    match Tepic.Mop.branch last_mop with
    | Some br -> br.Tepic.Op.pred
    | None -> Alcotest.fail "no branch"
  in
  List.iter
    (fun op ->
      match op.Tepic.Op.body with
      | Tepic.Op.Cmpp { dest; _ } ->
          Alcotest.(check bool) "cmpp defining the branch predicate not in branch MOP"
            true (dest <> branch_pred)
      | _ -> ())
    (Tepic.Mop.ops last_mop)

(* Liveness.VSet and Regalloc.VMap order vregs with [Ir.compare_vreg];
   allocation and the sets it iterates depend on that order matching the
   structural one. *)
let prop_vreg_order =
  let vreg =
    QCheck.Gen.(
      map2
        (fun vcls vid -> { Ir.vcls; vid })
        (oneofl Tepic.Reg.[ Gpr; Fpr; Pr ])
        (oneof [ int_range (-2) 2; int ]))
  in
  QCheck.Test.make ~name:"compare_vreg = Stdlib.compare" ~count:2000
    (QCheck.make
       ~print:(fun (a, b) -> Format.asprintf "%a %a" Ir.pp_vreg a Ir.pp_vreg b)
       (QCheck.Gen.pair vreg vreg))
    (fun (a, b) ->
      Int.compare (Ir.compare_vreg a b) 0 = Int.compare (Stdlib.compare a b) 0
      && Ir.equal_vreg a b = (a = b))

let suite =
  [
    Alcotest.test_case "liveness: diamond" `Quick test_liveness_diamond;
    Alcotest.test_case "liveness: loop back edge" `Quick test_liveness_loop;
    Alcotest.test_case "liveness: guarded defs don't kill" `Quick
      test_guarded_def_keeps_old_value_live;
    Alcotest.test_case "treegion: diamond" `Quick test_treegion_diamond;
    Alcotest.test_case "treegion: back edges excluded" `Quick
      test_treegion_back_edge_excluded;
    Alcotest.test_case "treegion: stats" `Quick test_treegion_stats;
    Alcotest.test_case "regalloc: basic window" `Quick test_regalloc_basic;
    Alcotest.test_case "regalloc: semantics preserved" `Quick
      test_regalloc_preserves_semantics;
    Alcotest.test_case "regalloc: spill correctness" `Quick test_regalloc_spill;
    Alcotest.test_case "regalloc: precolored links" `Quick
      test_regalloc_precolored;
    Alcotest.test_case "regalloc: per-group windows" `Quick test_regalloc_groups;
    Alcotest.test_case "schedule: resource limits" `Quick
      test_schedule_respects_resources;
    Alcotest.test_case "schedule: RAW chains serialize" `Quick
      test_schedule_raw_ordering;
    Alcotest.test_case "schedule: WAR shares a cycle" `Quick
      test_schedule_war_can_share_cycle;
    Alcotest.test_case "schedule: ILP statistic" `Quick test_schedule_ilp_reported;
    Alcotest.test_case "layout: well-formed program" `Quick test_layout_wellformed;
    Alcotest.test_case "layout: pads empty blocks" `Quick
      test_layout_pads_empty_block;
    Alcotest.test_case "layout: branch/cmpp hazard" `Quick
      test_layout_branch_not_with_its_producer;
    QCheck_alcotest.to_alcotest prop_vreg_order;
  ]
