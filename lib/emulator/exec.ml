type stop_reason = Fell_through | Halted | Budget_exhausted

type result = {
  trace : Trace.t;
  machine : Machine.t;
  stop : stop_reason;
}

let run ?(max_blocks = 2_000_000) ?(mem_size = 65536) ?obs program =
  Cccs_obs.Sink.timed ?obs ~stage:Cccs_obs.Event.Simulate
    ~label:("execute:" ^ program.Tepic.Program.name)
  @@ fun () ->
  let machine = Machine.create ~mem_size () in
  let trace = Trace.create () in
  let blocks = program.Tepic.Program.blocks in
  let n = Array.length blocks in
  let code =
    Machine.decode
      (List.concat_map
         (fun b -> List.map Tepic.Mop.ops b.Tepic.Program.mops)
         (Array.to_list blocks))
  in
  (* Block [b] is MOPs [first_mop.(b)] to [first_mop.(b + 1) - 1]. *)
  let first_mop = Array.make (n + 1) 0 in
  Array.iteri
    (fun b blk ->
      first_mop.(b + 1) <- first_mop.(b) + Tepic.Program.block_num_mops blk)
    blocks;
  let num_ops = Array.map Tepic.Program.block_num_ops blocks in
  (* [Program.make] admits a branch only as a block's last op, so the
     block's last MOP decides where control goes. *)
  let rec visit pc visits =
    if visits >= max_blocks then Budget_exhausted
    else begin
      let last = first_mop.(pc + 1) - 1 in
      Trace.add trace pc;
      Trace.record_ops trace ~ops:num_ops.(pc)
        ~mops:(last + 1 - first_mop.(pc));
      for m = first_mop.(pc) to last - 1 do
        ignore (Machine.step machine code ~block_id:pc m : Machine.branch)
      done;
      match Machine.step machine code ~block_id:pc last with
      | Machine.No_branch ->
          if pc + 1 >= n then Fell_through else visit (pc + 1) (visits + 1)
      | Machine.Jump | Machine.Call -> visit (Machine.target code) (visits + 1)
      | Machine.Return ->
          let t = Machine.target code in
          if t < 0 then Halted
          else if t >= n then Fell_through
          else visit t (visits + 1)
    end
  in
  let stop = visit program.Tepic.Program.entry 0 in
  Cccs_obs.Sink.gauge ?obs "exec.block_visits"
    (float_of_int (Trace.length trace));
  Cccs_obs.Sink.gauge ?obs "exec.dyn_ops" (float_of_int (Trace.total_ops trace));
  Cccs_obs.Sink.gauge ?obs "exec.dyn_mops"
    (float_of_int (Trace.total_mops trace));
  { trace; machine; stop }
