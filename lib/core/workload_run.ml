type run = {
  name : string;
  kind : [ `Spec | `Kernel ];
  compiled : Pipeline.compiled;
  exec : Emulator.Exec.result;
}

(* Domain-local: each worker domain of a parallel sweep memoizes its own
   runs, so the table is never written from two domains (see Parallel). *)
let cache_key : (string, run) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 17)

let cache () = Domain.DLS.get cache_key

let calibrate p =
  (* Probe with a 4-iteration hot loop (trip count 3): structure and code
     are identical across trip counts, only the loop-bound LDI changes. *)
  let probe = { p with Workloads.Profile.outer_trips = 4 } in
  let w = Workloads.Gen.generate probe in
  let r = Emulator.Ref_interp.run ~max_blocks:600_000 w.Workloads.Gen.cfg in
  let dyn = Emulator.Trace.total_ops r.Emulator.Ref_interp.trace in
  let per_iter = max 1 (dyn / 4) in
  let trips =
    max 2 (min 50_000 (p.Workloads.Profile.dyn_ops_target / per_iter))
  in
  { p with Workloads.Profile.outer_trips = trips }

let generate (e : Workloads.Suite.entry) =
  match e.Workloads.Suite.profile with
  | Some p -> Workloads.Gen.generate (calibrate p)
  | None -> e.Workloads.Suite.load ()

let load ?obs (e : Workloads.Suite.entry) =
  let cache = cache () in
  match Hashtbl.find_opt cache e.Workloads.Suite.name with
  | Some r -> r
  | None ->
      let w =
        Cccs_obs.Sink.timed ?obs ~stage:Cccs_obs.Event.Lower
          ~label:("lower:" ^ e.Workloads.Suite.name)
        @@ fun () -> generate e
      in
      let compiled = Pipeline.compile ?obs w in
      let exec =
        Emulator.Exec.run ~max_blocks:3_000_000 ?obs compiled.Pipeline.program
      in
      let r = { name = e.Workloads.Suite.name; kind = e.Workloads.Suite.kind;
                compiled; exec }
      in
      Hashtbl.replace cache e.Workloads.Suite.name r;
      r

let load_spec () = List.map load Workloads.Suite.spec
let clear_cache () = Hashtbl.reset (cache ())
