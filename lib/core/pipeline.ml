type compiled = {
  program : Tepic.Program.t;
  alloc_cfg : Vliw_compiler.Cfg.t;
  ilp : float;
  hoisted : int;
  spill_slots : int;
  max_live : (Tepic.Reg.cls * int) list;
}

let log_src = Logs.Src.create "cccs.pipeline" ~doc:"Compiler driver stages"

module Log = (val Logs.src_log log_src : Logs.LOG)

let compile ?obs ?(speculate = true) ?(profile_guided = false)
    (w : Workloads.Gen.result) =
  let alloc =
    Cccs_obs.Sink.timed ?obs ~stage:Cccs_obs.Event.Regalloc ~label:"regalloc"
    @@ fun () ->
    Vliw_compiler.Regalloc.allocate ~allowed:Workloads.Gen.window
      ~group_of_block:w.Workloads.Gen.group_of_block
      ~precolored:w.Workloads.Gen.precolored
      ~spill_base:w.Workloads.Gen.spill_base w.Workloads.Gen.cfg
  in
  let edge_profile =
    if not profile_guided then None
    else begin
      (* A bounded profiling run over the allocated program collects edge
         counts; speculation sites then favour their hottest successor. *)
      let res =
        Emulator.Ref_interp.run ~max_blocks:200_000
          alloc.Vliw_compiler.Regalloc.cfg
      in
      let counts = Hashtbl.create 1024 in
      let tr = res.Emulator.Ref_interp.trace in
      for i = 0 to Emulator.Trace.length tr - 2 do
        let key = (Emulator.Trace.get tr i, Emulator.Trace.get tr (i + 1)) in
        Hashtbl.replace counts key
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
      done;
      Some
        (fun parent child ->
          Option.value ~default:0 (Hashtbl.find_opt counts (parent, child)))
    end
  in
  let sched =
    Cccs_obs.Sink.timed ?obs ~stage:Cccs_obs.Event.Schedule ~label:"schedule"
    @@ fun () ->
    Vliw_compiler.Schedule.run ~speculate ?edge_profile
      alloc.Vliw_compiler.Regalloc.cfg
  in
  let program =
    Cccs_obs.Sink.timed ?obs ~stage:Cccs_obs.Event.Encode ~label:"layout"
    @@ fun () -> Vliw_compiler.Layout.build sched
  in
  (* Per-stage gauges: static op/MOP counts out of layout, schedule and
     allocator quality figures.  The baseline bit size is only computed
     when someone is listening — it encodes the whole program. *)
  (match obs with
  | Some _ ->
      Cccs_obs.Sink.gauge ?obs "regalloc.spill_slots"
        (float_of_int alloc.Vliw_compiler.Regalloc.spill_slots);
      Cccs_obs.Sink.gauge ?obs "schedule.ilp" (Vliw_compiler.Schedule.ilp sched);
      Cccs_obs.Sink.gauge ?obs "schedule.hoisted"
        (float_of_int sched.Vliw_compiler.Schedule.hoisted);
      Cccs_obs.Sink.gauge ?obs "layout.blocks"
        (float_of_int (Tepic.Program.num_blocks program));
      Cccs_obs.Sink.gauge ?obs "layout.static_ops"
        (float_of_int (Tepic.Program.num_ops program));
      Cccs_obs.Sink.gauge ?obs "layout.static_mops"
        (float_of_int (Tepic.Program.num_mops program));
      Cccs_obs.Sink.gauge ?obs "layout.baseline_bits"
        (float_of_int (8 * String.length (Tepic.Program.baseline_image program)))
  | None -> ());
  Log.debug (fun m ->
      m "compiled %s: blocks=%d ops=%d ilp=%.2f hoisted=%d spills=%d"
        program.Tepic.Program.name
        (Tepic.Program.num_blocks program)
        (Tepic.Program.num_ops program)
        (Vliw_compiler.Schedule.ilp sched)
        sched.Vliw_compiler.Schedule.hoisted
        alloc.Vliw_compiler.Regalloc.spill_slots);
  {
    program;
    alloc_cfg = alloc.Vliw_compiler.Regalloc.cfg;
    ilp = Vliw_compiler.Schedule.ilp sched;
    hoisted = sched.Vliw_compiler.Schedule.hoisted;
    spill_slots = alloc.Vliw_compiler.Regalloc.spill_slots;
    max_live = alloc.Vliw_compiler.Regalloc.max_live;
  }

let compile_profile ?speculate p =
  compile ?speculate (Workloads.Gen.generate p)

let lint (c : compiled) =
  let target =
    Cccs_analysis.Pass.target ~cfg:c.alloc_cfg ~program:c.program
      c.program.Tepic.Program.name
  in
  List.concat_map
    (fun (module P : Cccs_analysis.Pass.S) -> P.run target)
    [ Cccs_analysis.Dataflow_check.pass; Cccs_analysis.Schedule_check.pass ]

(* The decompression direction of the pipeline: compiled program -> scheme
   image -> baseline image.  [jobs] and the report are accepted and
   returned only for the benchmark, which still passes and reads them. *)
let decompress ?jobs:_ ?obs scheme =
  Result.map
    (fun img -> (img, { Par_decode.jobs = 1; chunks = 1 }))
    (Par_decode.decode ?obs scheme)
