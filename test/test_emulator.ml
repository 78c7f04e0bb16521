(* Emulator tests: pure semantics, MOP-parallel execution, control flow,
   traces and the reference interpreter. *)

let check = Alcotest.(check int)

(* --- Semantics --- *)

let test_wrap32 () =
  check "identity" 5 (Emulator.Semantics.wrap32 5);
  check "negative" (-5) (Emulator.Semantics.wrap32 (-5));
  check "overflow wraps" (-2147483648) (Emulator.Semantics.wrap32 2147483648);
  check "max" 2147483647 (Emulator.Semantics.wrap32 2147483647);
  check "unsigned read" 0xFFFFFFFF (Emulator.Semantics.to_unsigned (-1))

let test_alu () =
  let a = Emulator.Semantics.alu in
  check "add" 7 (a Tepic.Opcode.ADD 3 4);
  check "add wraps" (-2147483648) (a Tepic.Opcode.ADD 2147483647 1);
  check "sub" (-1) (a Tepic.Opcode.SUB 3 4);
  check "mul" 12 (a Tepic.Opcode.MUL 3 4);
  check "div" 3 (a Tepic.Opcode.DIV 13 4);
  check "div by zero" 0 (a Tepic.Opcode.DIV 13 0);
  check "rem by zero" 0 (a Tepic.Opcode.REM 13 0);
  check "and" 0b100 (a Tepic.Opcode.AND 0b110 0b101);
  check "nand" (Emulator.Semantics.wrap32 (lnot 0b100)) (a Tepic.Opcode.NAND 0b110 0b101);
  check "shl masks shamt" 2 (a Tepic.Opcode.SHL 1 33);
  check "shr is logical" 0x7FFFFFFF (a Tepic.Opcode.SHR (-1) 1);
  check "sra is arithmetic" (-1) (a Tepic.Opcode.SRA (-1) 1);
  check "mov" 9 (a Tepic.Opcode.MOV 9 0);
  check "abs" 9 (a Tepic.Opcode.ABS (-9) 0);
  check "min" (-3) (a Tepic.Opcode.MIN (-3) 2);
  check "max" 2 (a Tepic.Opcode.MAX (-3) 2)

let test_cmpp () =
  let c = Emulator.Semantics.cmpp in
  Alcotest.(check bool) "lt" true (c Tepic.Opcode.CMPP_LT (-1) 0);
  Alcotest.(check bool) "ltu treats -1 as big" false
    (c Tepic.Opcode.CMPP_LTU (-1) 0);
  Alcotest.(check bool) "geu" true (c Tepic.Opcode.CMPP_GEU (-1) 0);
  Alcotest.(check bool) "eq" true (c Tepic.Opcode.CMPP_EQ 4 4);
  Alcotest.(check bool) "ne" false (c Tepic.Opcode.CMPP_NE 4 4)

let test_fpu_sanitized () =
  let f = Emulator.Semantics.fpu in
  Alcotest.(check (float 1e-9)) "fadd" 3.5 (f Tepic.Opcode.FADD 1.5 2.0);
  Alcotest.(check (float 1e-9)) "fdiv by zero" 0.0 (f Tepic.Opcode.FDIV 1.0 0.0);
  Alcotest.(check (float 1e-9)) "nan flushed" 0.0
    (f Tepic.Opcode.FMUL Float.infinity 0.0);
  Alcotest.(check (float 1e-9)) "inf flushed" 0.0
    (f Tepic.Opcode.FMUL Float.max_float Float.max_float);
  Alcotest.(check (float 1e-9)) "fsqrt of negative" 0.0
    (f Tepic.Opcode.FSQRT (-4.0) 0.0);
  Alcotest.(check (float 1e-9)) "fcmp true" 1.0 (f Tepic.Opcode.FCMP 1.0 2.0)

let test_ftoi () =
  check "trunc" 3 (Emulator.Semantics.ftoi 3.7);
  check "trunc negative" (-3) (Emulator.Semantics.ftoi (-3.7));
  check "nan" 0 (Emulator.Semantics.ftoi Float.nan);
  check "saturate" 2147483647 (Emulator.Semantics.ftoi 1e30)

let test_mem_index () =
  check "in range" 5 (Emulator.Semantics.mem_index ~size:100 5);
  check "wraps" 5 (Emulator.Semantics.mem_index ~size:100 105);
  check "negative wraps" 95 (Emulator.Semantics.mem_index ~size:100 (-5))

let test_narrow () =
  check "byte sign extend" (-1) (Emulator.Semantics.narrow ~bhwx:0 0xFF);
  check "byte positive" 0x7F (Emulator.Semantics.narrow ~bhwx:0 0x7F);
  check "half sign extend" (-1) (Emulator.Semantics.narrow ~bhwx:1 0xFFFF);
  check "word" 123456 (Emulator.Semantics.narrow ~bhwx:2 123456)

(* --- Machine: MOP-parallel semantics --- *)

let mk_machine () = Emulator.Machine.create ~mem_size:256 ()

let test_parallel_swap () =
  (* Classic test of read-before-write: a parallel register swap. *)
  let m = mk_machine () in
  m.Emulator.Machine.gpr.(1) <- 11;
  m.Emulator.Machine.gpr.(2) <- 22;
  let mov d s = Tepic.Op.alu ~opcode:Tepic.Opcode.MOV ~src1:s ~src2:0 ~dest:d () in
  ignore (Emulator.Machine.exec_mop m ~block_id:0 [ mov 1 2; mov 2 1 ]);
  check "swap r1" 22 m.Emulator.Machine.gpr.(1);
  check "swap r2" 11 m.Emulator.Machine.gpr.(2)

let test_predication () =
  let m = mk_machine () in
  m.Emulator.Machine.pr.(3) <- false;
  ignore
    (Emulator.Machine.exec_mop m ~block_id:0
       [ Tepic.Op.ldi ~pred:3 ~imm:99 ~dest:1 () ]);
  check "guard false: no write" 0 m.Emulator.Machine.gpr.(1);
  m.Emulator.Machine.pr.(3) <- true;
  ignore
    (Emulator.Machine.exec_mop m ~block_id:0
       [ Tepic.Op.ldi ~pred:3 ~imm:99 ~dest:1 () ]);
  check "guard true: write" 99 m.Emulator.Machine.gpr.(1)

let test_p0_hardwired () =
  let m = mk_machine () in
  ignore
    (Emulator.Machine.exec_mop m ~block_id:0
       [ Tepic.Op.cmpp ~opcode:Tepic.Opcode.CMPP_NE ~src1:0 ~src2:0 ~dest:0 () ]);
  Alcotest.(check bool) "p0 stays true" true m.Emulator.Machine.pr.(0)

let test_branch_semantics () =
  let m = mk_machine () in
  (* BR *)
  (match
     Emulator.Machine.exec_mop m ~block_id:4
       [ Tepic.Op.branch ~opcode:Tepic.Opcode.BR ~target:9 () ]
   with
  | Emulator.Machine.Goto t -> check "br" 9 t
  | _ -> Alcotest.fail "expected Goto");
  (* BRCT with true guard (p0) is taken. *)
  (match
     Emulator.Machine.exec_mop m ~block_id:4
       [ Tepic.Op.branch ~opcode:Tepic.Opcode.BRCT ~target:9 () ]
   with
  | Emulator.Machine.Goto _ -> ()
  | _ -> Alcotest.fail "BRCT with true guard must branch");
  (* BRCT with false guard falls through. *)
  m.Emulator.Machine.pr.(5) <- false;
  (match
     Emulator.Machine.exec_mop m ~block_id:4
       [ Tepic.Op.branch ~pred:5 ~opcode:Tepic.Opcode.BRCT ~target:9 () ]
   with
  | Emulator.Machine.Next -> ()
  | _ -> Alcotest.fail "BRCT with false guard must fall through");
  (* BRCF is the complement. *)
  (match
     Emulator.Machine.exec_mop m ~block_id:4
       [ Tepic.Op.branch ~pred:5 ~opcode:Tepic.Opcode.BRCF ~target:9 () ]
   with
  | Emulator.Machine.Goto t -> check "brcf taken on false" 9 t
  | _ -> Alcotest.fail "BRCF with false guard must branch");
  m.Emulator.Machine.pr.(5) <- true;
  (match
     Emulator.Machine.exec_mop m ~block_id:4
       [ Tepic.Op.branch ~pred:5 ~opcode:Tepic.Opcode.BRCF ~target:9 () ]
   with
  | Emulator.Machine.Next -> ()
  | _ -> Alcotest.fail "BRCF with true guard must fall through")

let test_brlc () =
  let m = mk_machine () in
  m.Emulator.Machine.gpr.(7) <- 2;
  let brlc () =
    Emulator.Machine.exec_mop m ~block_id:3
      [ Tepic.Op.branch ~counter:7 ~opcode:Tepic.Opcode.BRLC ~target:1 () ]
  in
  (match brlc () with
  | Emulator.Machine.Goto 1 -> ()
  | _ -> Alcotest.fail "counter=2 must loop");
  check "decremented" 1 m.Emulator.Machine.gpr.(7);
  ignore (brlc ());
  check "decremented again" 0 m.Emulator.Machine.gpr.(7);
  match brlc () with
  | Emulator.Machine.Next -> ()
  | _ -> Alcotest.fail "counter=0 must exit"

let test_brl_ret () =
  let m = mk_machine () in
  (match
     Emulator.Machine.exec_mop m ~block_id:6
       [ Tepic.Op.branch ~src1:31 ~opcode:Tepic.Opcode.BRL ~target:20 () ]
   with
  | Emulator.Machine.Call_to { target } -> check "call target" 20 target
  | _ -> Alcotest.fail "expected Call_to");
  check "link holds return block" 7 m.Emulator.Machine.gpr.(31);
  (match
     Emulator.Machine.exec_mop m ~block_id:25
       [ Tepic.Op.branch ~src1:31 ~opcode:Tepic.Opcode.RET ~target:0 () ]
   with
  | Emulator.Machine.Return_to t -> check "returns" 7 t
  | _ -> Alcotest.fail "expected Return_to");
  m.Emulator.Machine.gpr.(31) <- -1;
  match
    Emulator.Machine.exec_mop m ~block_id:25
      [ Tepic.Op.branch ~src1:31 ~opcode:Tepic.Opcode.RET ~target:0 () ]
  with
  | Emulator.Machine.Halt -> ()
  | _ -> Alcotest.fail "negative link halts"

let test_fp_memory_tcs () =
  let m = mk_machine () in
  m.Emulator.Machine.gpr.(1) <- 10;
  m.Emulator.Machine.fpr.(2) <- 2.5;
  ignore
    (Emulator.Machine.exec_mop m ~block_id:0
       [ Tepic.Op.store ~tcs:1 ~opcode:Tepic.Opcode.SW ~src1:1 ~src2:2 () ]);
  Alcotest.(check (float 1e-9)) "fmem written" 2.5 m.Emulator.Machine.fmem.(10);
  ignore
    (Emulator.Machine.exec_mop m ~block_id:0
       [ Tepic.Op.load ~tcs:1 ~opcode:Tepic.Opcode.LW ~src1:1 ~dest:3 () ]);
  Alcotest.(check (float 1e-9)) "fpr loaded" 2.5 m.Emulator.Machine.fpr.(3)

(* --- Exec on a tiny whole program --- *)

let tiny_program () =
  (* bb0: c=2; bb1: r1+=5, brlc c -> bb1; bb2: store r1 to [r2=64]. *)
  let mop ops = Tepic.Mop.make ops in
  Tepic.Program.make ~name:"tiny"
    [
      { Tepic.Program.id = 0;
        mops = [ mop [ Tepic.Op.ldi ~imm:2 ~dest:7 (); Tepic.Op.ldi ~imm:0 ~dest:1 () ] ] };
      { Tepic.Program.id = 1;
        mops =
          [
            mop [ Tepic.Op.ldi ~imm:5 ~dest:2 () ];
            mop
              [
                Tepic.Op.alu ~opcode:Tepic.Opcode.ADD ~src1:1 ~src2:2 ~dest:1 ();
                Tepic.Op.branch ~counter:7 ~opcode:Tepic.Opcode.BRLC ~target:1 ();
              ];
          ] };
      { Tepic.Program.id = 2;
        mops =
          [
            mop [ Tepic.Op.ldi ~imm:64 ~dest:2 () ];
            mop [ Tepic.Op.store ~opcode:Tepic.Opcode.SW ~src1:2 ~src2:1 () ];
          ] };
    ]

let test_exec_tiny () =
  let res = Emulator.Exec.run ~mem_size:128 (tiny_program ()) in
  Alcotest.(check bool) "ends by falling through" true
    (res.Emulator.Exec.stop = Emulator.Exec.Fell_through);
  (* Loop body runs 3 times (counter 2 -> taken, taken, exit). *)
  check "accumulated" 15 res.Emulator.Exec.machine.Emulator.Machine.gpr.(1);
  check "stored" 15 res.Emulator.Exec.machine.Emulator.Machine.mem.(64);
  Alcotest.(check (array int)) "trace" [| 0; 1; 1; 1; 2 |]
    (Emulator.Trace.to_array res.Emulator.Exec.trace)

let test_exec_budget () =
  (* An infinite loop must stop at the budget. *)
  let p =
    Tepic.Program.make ~name:"inf"
      [
        { Tepic.Program.id = 0;
          mops = [ Tepic.Mop.make [ Tepic.Op.branch ~opcode:Tepic.Opcode.BR ~target:0 () ] ] };
      ]
  in
  let res = Emulator.Exec.run ~max_blocks:100 p in
  Alcotest.(check bool) "budget stop" true
    (res.Emulator.Exec.stop = Emulator.Exec.Budget_exhausted);
  check "visits bounded" 100 (Emulator.Trace.length res.Emulator.Exec.trace)

(* --- Trace --- *)

let test_trace () =
  let t = Emulator.Trace.create () in
  for i = 0 to 2999 do
    Emulator.Trace.add t (i mod 7)
  done;
  check "length" 3000 (Emulator.Trace.length t);
  check "get" 4 (Emulator.Trace.get t 4);
  let v = Emulator.Trace.visits t ~num_blocks:7 in
  check "visit counts" 429 v.(0);
  Emulator.Trace.record_ops t ~ops:10 ~mops:3;
  Emulator.Trace.record_ops t ~ops:5 ~mops:2;
  check "ops accumulate" 15 (Emulator.Trace.total_ops t);
  check "mops accumulate" 5 (Emulator.Trace.total_mops t)

(* An executed trace written as [cccs trace] writes it (through
   Workloads.Trace_stream) reads back visit for visit, with its op and MOP
   totals in the header. *)
let test_trace_to_stream () =
  let module Ts = Workloads.Trace_stream in
  let w = Workloads.Kernels.fir ~taps:4 ~samples:2 in
  let c = Cccs.Pipeline.compile w in
  let t = (Emulator.Exec.run c.Cccs.Pipeline.program).Emulator.Exec.trace in
  let path = Filename.temp_file "cccs" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let wr = Ts.create ~chunk_visits:7 path in
      Emulator.Trace.iter (Ts.add wr) t;
      Ts.record_ops wr ~ops:(Emulator.Trace.total_ops t)
        ~mops:(Emulator.Trace.total_mops t);
      Ts.close wr;
      let back = ref [] in
      match Ts.iter path ~f:(fun b -> back := b :: !back) with
      | Error e -> Alcotest.fail (Ts.error_to_string e)
      | Ok h ->
          Alcotest.(check (array int)) "sequence" (Emulator.Trace.to_array t)
            (Array.of_list (List.rev !back));
          check "visits" (Emulator.Trace.length t) h.Ts.visits;
          check "ops" (Emulator.Trace.total_ops t) h.Ts.ops;
          check "mops" (Emulator.Trace.total_mops t) h.Ts.mops)

(* --- Kernels: known numeric results --- *)

let test_fir_computes_fir () =
  (* Seed x and c arrays, run the compiled FIR kernel, check out[0]. *)
  let w = Workloads.Kernels.fir ~taps:4 ~samples:2 in
  let c = Cccs.Pipeline.compile w in
  let res = Emulator.Exec.run c.Cccs.Pipeline.program in
  ignore res;
  (* The kernel reads zero-initialized memory, so every output is 0; the
     interesting check is against the reference interpreter with the same
     machine (covered below) plus termination here. *)
  Alcotest.(check bool) "terminates" true
    (res.Emulator.Exec.stop = Emulator.Exec.Fell_through)

let test_ref_interp_matches_machine_on_kernels () =
  List.iter
    (fun (name, k) ->
      let w = Lazy.force k in
      let c = Cccs.Pipeline.compile w in
      let res = Emulator.Exec.run c.Cccs.Pipeline.program in
      let ref_res = Emulator.Ref_interp.run c.Cccs.Pipeline.alloc_cfg in
      Alcotest.(check bool) (name ^ " memory agrees") true
        (Emulator.Ref_interp.mem_checksum ref_res
        = Emulator.Machine.mem_checksum res.Emulator.Exec.machine);
      Alcotest.(check bool) (name ^ " trace agrees") true
        (Emulator.Trace.to_array res.Emulator.Exec.trace
        = Emulator.Trace.to_array ref_res.Emulator.Ref_interp.trace))
    Workloads.Kernels.all

(* --- Pre-decoded execution against the reference loop --- *)

module R = Exec_reference

let check_same_run label (expect : R.result) (got : Emulator.Exec.result) =
  let trace t = Emulator.Trace.to_array t in
  Alcotest.(check (array int)) (label ^ ": trace") (trace expect.R.trace)
    (trace got.Emulator.Exec.trace);
  Alcotest.(check bool) (label ^ ": stop") true
    (expect.R.stop = got.Emulator.Exec.stop);
  check (label ^ ": ops")
    (Emulator.Trace.total_ops expect.R.trace)
    (Emulator.Trace.total_ops got.Emulator.Exec.trace);
  check (label ^ ": mops")
    (Emulator.Trace.total_mops expect.R.trace)
    (Emulator.Trace.total_mops got.Emulator.Exec.trace);
  check (label ^ ": checksum")
    (Emulator.Machine.checksum expect.R.machine)
    (Emulator.Machine.checksum got.Emulator.Exec.machine)

(* Every suite program runs as the reference loop runs it, allocating at
   most one minor word per executed op: nothing per visit, per MOP or per
   integer op, only an FP op's boxed operands. *)
let test_suite_programs_match_reference () =
  List.iter
    (fun e ->
      let name = e.Workloads.Suite.name in
      let prog =
        (Cccs.Workload_run.load e).Cccs.Workload_run.compiled
          .Cccs.Pipeline.program
      in
      let words0 = Gc.minor_words () in
      let got = Emulator.Exec.run ~max_blocks:3_000_000 prog in
      let words = Gc.minor_words () -. words0 in
      check_same_run name (R.run ~max_blocks:3_000_000 prog) got;
      let ops = Emulator.Trace.total_ops got.Emulator.Exec.trace in
      if words > float_of_int ops then
        Alcotest.failf "%s: %.0f minor words for %d executed ops" name words
          ops)
    Workloads.Suite.all

let prop_random_programs_match_reference =
  QCheck.Test.make ~name:"random programs = reference" ~count:300
    (QCheck.make
       ~print:(Format.asprintf "%a" Tepic.Program.pp)
       (Gen_ops.program ()))
    (fun prog ->
      (* A small memory makes addresses wrap; the budget stops loops. *)
      check_same_run "random"
        (R.run ~max_blocks:400 ~mem_size:61 prog)
        (Emulator.Exec.run ~max_blocks:400 ~mem_size:61 prog);
      true)

let block id mops =
  { Tepic.Program.id; mops = List.map Tepic.Mop.make mops }

let run_both ?entry name blocks =
  let prog = Tepic.Program.make ~name ?entry blocks in
  let got = Emulator.Exec.run ~mem_size:64 prog in
  check_same_run name (R.run ~mem_size:64 prog) got;
  got

let test_call_return_programs () =
  let open Tepic in
  let ret = Op.branch ~src1:31 ~opcode:Opcode.RET ~target:0 () in
  (* bb0 calls bb2, which returns to bb1; bb1 sets the link to -1 and
     falls into bb2, whose RET then halts. *)
  let got =
    run_both "negative link"
      [
        block 0
          [ [ Op.ldi ~imm:7 ~dest:1 ();
              Op.branch ~src1:31 ~opcode:Opcode.BRL ~target:2 () ] ];
        block 1
          [ [ Op.ldi ~imm:1 ~dest:2 () ];
            [ Op.alu ~opcode:Opcode.SUB ~src1:0 ~src2:2 ~dest:31 () ] ];
        block 2
          [ [ Op.alu ~opcode:Opcode.ADD ~src1:1 ~src2:1 ~dest:3 () ]; [ ret ] ];
      ]
  in
  Alcotest.(check (array int)) "visits" [| 0; 2; 1; 2 |]
    (Emulator.Trace.to_array got.Emulator.Exec.trace);
  Alcotest.(check bool) "halted" true
    (got.Emulator.Exec.stop = Emulator.Exec.Halted);
  check "callee ran" 14 got.Emulator.Exec.machine.Emulator.Machine.gpr.(3);
  (* The last block calls bb0, so the link is the block count: the
     return falls through. *)
  let got =
    run_both ~entry:1 "link = block count"
      [
        block 0 [ [ ret ] ];
        block 1 [ [ Op.branch ~src1:31 ~opcode:Opcode.BRL ~target:0 () ] ];
      ]
  in
  Alcotest.(check (array int)) "visits" [| 1; 0 |]
    (Emulator.Trace.to_array got.Emulator.Exec.trace);
  Alcotest.(check bool) "fell through" true
    (got.Emulator.Exec.stop = Emulator.Exec.Fell_through);
  let got =
    run_both "link past the end"
      [
        block 0 [ [ Op.ldi ~imm:5 ~dest:31 () ]; [ ret ] ];
        block 1 [ [ Op.ldi ~imm:1 ~dest:1 () ] ];
      ]
  in
  Alcotest.(check bool) "fell through" true
    (got.Emulator.Exec.stop = Emulator.Exec.Fell_through);
  check "bb1 skipped" 0 got.Emulator.Exec.machine.Emulator.Machine.gpr.(1)

let test_fp_memory_program () =
  let open Tepic in
  let got =
    run_both "TCS=1"
      [
        block 0
          [
            [ Op.ldi ~imm:10 ~dest:1 (); Op.ldi ~imm:3 ~dest:2 () ];
            [ Op.fpu ~opcode:Opcode.ITOF ~src1:2 ~src2:0 ~dest:4 () ];
            [ Op.store ~tcs:1 ~opcode:Opcode.SW ~src1:1 ~src2:4 () ];
            [ Op.load ~tcs:1 ~opcode:Opcode.LW ~src1:1 ~dest:5 ();
              Op.load ~opcode:Opcode.LW ~src1:1 ~dest:6 () ];
            [ Op.fpu ~opcode:Opcode.FTOI ~src1:5 ~src2:0 ~dest:7 () ];
          ];
      ]
  in
  let m = got.Emulator.Exec.machine in
  Alcotest.(check (float 0.)) "fmem" 3. m.Emulator.Machine.fmem.(10);
  Alcotest.(check (float 0.)) "fpr loaded" 3. m.Emulator.Machine.fpr.(5);
  check "integer view untouched" 0 m.Emulator.Machine.gpr.(6);
  check "converted back" 3 m.Emulator.Machine.gpr.(7)

(* [one_mop set ops] runs [ops] as one MOP on a fresh machine prepared by
   [set], through [exec_mop] and through the reference, and returns the
   machine once both agree on the control decision and the state. *)
let one_mop ?(block_id = 0) set ops =
  let m = mk_machine () and r = mk_machine () in
  set m;
  set r;
  let c = Emulator.Machine.exec_mop m ~block_id ops in
  Alcotest.(check bool) "control" true
    (c = R.Machine.exec_mop r ~block_id ops);
  check "state" (Emulator.Machine.checksum r) (Emulator.Machine.checksum m);
  (m, c)

let test_mop_reads_old_state () =
  let open Tepic in
  let module M = Emulator.Machine in
  (* A predicate set in the MOP does not guard its later ops yet. *)
  let m, _ =
    one_mop
      (fun m -> m.M.pr.(3) <- false)
      [ Op.cmpp ~opcode:Opcode.CMPP_EQ ~src1:0 ~src2:0 ~dest:3 ();
        Op.ldi ~pred:3 ~imm:99 ~dest:1 () ]
  in
  Alcotest.(check bool) "predicate set" true m.M.pr.(3);
  check "guarded by the old predicate" 0 m.M.gpr.(1);
  (* A load reads the word a store of the same MOP replaces. *)
  let m, _ =
    one_mop
      (fun m ->
        m.M.gpr.(1) <- 10;
        m.M.gpr.(2) <- 42;
        m.M.mem.(10) <- 7)
      [ Op.store ~opcode:Opcode.SW ~src1:1 ~src2:2 ();
        Op.load ~opcode:Opcode.LW ~src1:1 ~dest:3 () ]
  in
  check "load sees the old word" 7 m.M.gpr.(3);
  check "store committed" 42 m.M.mem.(10);
  (* BRLC's decrement is invisible to the other ops of its MOP. *)
  let m, c =
    one_mop
      (fun m -> m.M.gpr.(7) <- 2)
      [ Op.alu ~opcode:Opcode.MOV ~src1:7 ~src2:0 ~dest:1 ();
        Op.branch ~counter:7 ~opcode:Opcode.BRLC ~target:4 () ]
  in
  check "old counter read" 2 m.M.gpr.(1);
  check "counter decremented" 1 m.M.gpr.(7);
  Alcotest.(check bool) "loop taken" true (c = M.Goto 4)

let test_mop_last_write_wins () =
  let open Tepic in
  let module M = Emulator.Machine in
  let m, _ =
    one_mop
      (fun m ->
        m.M.gpr.(1) <- 10;
        m.M.gpr.(2) <- 5;
        m.M.gpr.(3) <- 6)
      [ Op.ldi ~imm:5 ~dest:4 ();
        Op.ldi ~imm:6 ~dest:4 ();
        Op.store ~opcode:Opcode.SW ~src1:1 ~src2:2 ();
        Op.store ~opcode:Opcode.SW ~src1:1 ~src2:3 () ]
  in
  check "register: later op" 6 m.M.gpr.(4);
  check "memory: later op" 6 m.M.mem.(10)

(* Memory words are 32-bit: a store commits its data wrapped, even when
   the register was set from outside the machine. *)
let test_store_wraps () =
  let open Tepic in
  let module M = Emulator.Machine in
  let m, _ =
    one_mop
      (fun m ->
        m.M.gpr.(1) <- 10;
        m.M.gpr.(2) <- 0x1_0000_0005)
      [ Op.store ~opcode:Opcode.SW ~src1:1 ~src2:2 () ]
  in
  check "wrapped word" 5 m.M.mem.(10)

let suite =
  [
    Alcotest.test_case "wrap32" `Quick test_wrap32;
    Alcotest.test_case "ALU semantics" `Quick test_alu;
    Alcotest.test_case "compare semantics" `Quick test_cmpp;
    Alcotest.test_case "FPU semantics sanitized" `Quick test_fpu_sanitized;
    Alcotest.test_case "ftoi" `Quick test_ftoi;
    Alcotest.test_case "memory indexing" `Quick test_mem_index;
    Alcotest.test_case "operand narrowing" `Quick test_narrow;
    Alcotest.test_case "MOP parallel swap" `Quick test_parallel_swap;
    Alcotest.test_case "predication" `Quick test_predication;
    Alcotest.test_case "p0 hard-wired" `Quick test_p0_hardwired;
    Alcotest.test_case "branch semantics" `Quick test_branch_semantics;
    Alcotest.test_case "loop-counter branch" `Quick test_brlc;
    Alcotest.test_case "call and return" `Quick test_brl_ret;
    Alcotest.test_case "FP memory via TCS" `Quick test_fp_memory_tcs;
    Alcotest.test_case "whole-program execution" `Quick test_exec_tiny;
    Alcotest.test_case "execution budget" `Quick test_exec_budget;
    Alcotest.test_case "trace accounting" `Quick test_trace;
    Alcotest.test_case "trace to stream and back" `Quick test_trace_to_stream;
    Alcotest.test_case "fir kernel terminates" `Quick test_fir_computes_fir;
    Alcotest.test_case "kernels: machine vs reference" `Quick
      test_ref_interp_matches_machine_on_kernels;
    Alcotest.test_case "13 suite programs = reference loop" `Quick
      test_suite_programs_match_reference;
    QCheck_alcotest.to_alcotest prop_random_programs_match_reference;
    Alcotest.test_case "call and return programs = reference loop" `Quick
      test_call_return_programs;
    Alcotest.test_case "TCS=1 program = reference loop" `Quick
      test_fp_memory_program;
    Alcotest.test_case "MOP ops read pre-cycle state" `Quick
      test_mop_reads_old_state;
    Alcotest.test_case "MOP last write wins" `Quick test_mop_last_write_wins;
    Alcotest.test_case "store commits a 32-bit word" `Quick test_store_wraps;
  ]
