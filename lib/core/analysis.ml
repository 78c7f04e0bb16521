include Cccs_analysis

let target_of_run (r : Workload_run.run) =
  let c = r.Workload_run.compiled in
  let s = Experiments.schemes_of r in
  let schemes = List.map snd (Experiments.every_scheme s) in
  Pass.target ~cfg:c.Pipeline.alloc_cfg ~program:c.Pipeline.program ~schemes
    ~tailored:s.Experiments.tailored_spec r.Workload_run.name

let lint_run r = run_all (target_of_run r)

(* Trace-backed WCET over one loaded workload: every scheme, loop bounds
   from the executed trace, simulator-replay soundness checks included. *)
let wcet_run r =
  let t = target_of_run r in
  match t.Pass.program with
  | None -> []
  | Some program ->
      Cccs_analysis.Timing_check.analyze ~workload:t.Pass.workload ~program
        ?tailored:t.Pass.tailored
        ~trace:r.Workload_run.exec.Emulator.Exec.trace t.Pass.schemes
