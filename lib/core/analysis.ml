include Cccs_analysis

let target_of_run (r : Workload_run.run) =
  let c = r.Workload_run.compiled in
  let s = Experiments.schemes_of r in
  let schemes = List.map snd (Experiments.every_scheme s) in
  Pass.target ~cfg:c.Pipeline.alloc_cfg ~program:c.Pipeline.program ~schemes
    ~tailored:s.Experiments.tailored_spec r.Workload_run.name

let lint_run r = run_all (target_of_run r)

(* Trace-backed WCET over one loaded workload: every scheme, loop bounds
   from the executed trace, simulator-replay soundness checks included.
   [default_loop_bound] only matters for CFG cycles the trace never
   entered (there are none on the seed suite; it keeps the API total). *)
let wcet_run ?default_loop_bound r =
  let t = target_of_run r in
  match t.Pass.program with
  | None -> []
  | Some program ->
      Cccs_analysis.Timing_check.analyze ~workload:t.Pass.workload ~program
        ?tailored:t.Pass.tailored
        ~trace:r.Workload_run.exec.Emulator.Exec.trace ?default_loop_bound
        t.Pass.schemes
