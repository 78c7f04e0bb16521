(* Workload [figures]: a cold reproduction of the paper's figure set over
   every suite program, the path the repository exists for.  Each program
   is generated, compiled and emulated, every scheme and its ATT is built,
   and the four fetch models replay the trace (Figures 5, 7, 10, 13, 14).
   Programs are spread over [jobs] domains; nothing is memoized between
   rounds.  It never decodes an image and never runs the verifier. *)

type row = {
  name : string;
  digest : string;  (** every figure value of the program, hashed *)
  base_bytes : int;  (** the program's uncompressed baseline image size *)
  replayed : int;  (** block visits replayed by the four fetch models *)
}

type artifacts = {
  loaded : Common.loaded;
  schemes : Common.schemes;
  sims : (string * Fetch.Sim.result) list;
}

let sim model f = Span.with_ ("fetch.sim_s." ^ model) f

let program_row ~cause (i : Common.input) =
  Span.with_ ~cause "bench.item" @@ fun () ->
  let l = Common.load i in
  let prog = Common.program l in
  let s = Common.build_schemes prog in
  let cfg = Fetch.Config.default and cfg_base = Fetch.Config.default_base in
  let att sc (c : Fetch.Config.t) =
    Span.with_ "encoding.att_s" (fun () ->
        Encoding.Att.build sc ~line_bits:c.Fetch.Config.line_bits prog)
  in
  (* Figure 7: code + decode tables + ATT, for every figure scheme. *)
  let atts = List.map (fun (n, sc) -> (n, att sc cfg)) s.Common.figure in
  let scheme n = List.assoc n s.Common.figure in
  let trace = l.Common.exec.Emulator.Exec.trace in
  let att_base = att (scheme "base") cfg_base in
  (* Figures 13 and 14: the four fetch organizations on one trace. *)
  let sims =
    [
      ("ideal", sim "ideal" (fun () -> Fetch.Sim.run_ideal ~att:att_base trace));
      ( "base",
        sim "base" (fun () ->
            Fetch.Sim.run ~model:Fetch.Config.Base ~cfg:cfg_base
              ~scheme:(scheme "base") ~att:att_base trace) );
      ( "compressed",
        sim "compressed" (fun () ->
            Fetch.Sim.run ~model:Fetch.Config.Compressed ~cfg
              ~scheme:(scheme "full") ~att:(List.assoc "full" atts) trace) );
      ( "tailored",
        sim "tailored" (fun () ->
            Fetch.Sim.run ~model:Fetch.Config.Tailored ~cfg
              ~scheme:(scheme "tailored") ~att:(List.assoc "tailored" atts)
              trace) );
    ]
  in
  let b = Buffer.create 1024 in
  List.iter
    (fun (n, (sc : Encoding.Scheme.t)) ->
      let a = List.assoc n atts in
      Printf.bprintf b "%s %d %d %d %d;" n sc.code_bits sc.table_bits
        a.Encoding.Att.compressed_bits sc.decoder.transistors)
    s.Common.figure;
  List.iter
    (fun (n, (r : Fetch.Sim.result)) ->
      Printf.bprintf b "%s %d %d %d %d %d;" n r.cycles r.ops_delivered
        r.atb_misses r.bus_flips r.l1_misses)
    sims;
  ( {
    name = l.Common.name;
    digest = Digest.to_hex (Digest.string (Buffer.contents b));
    base_bytes = Tepic.Program.baseline_size_bytes prog;
    replayed =
      List.fold_left (fun a (_, r) -> a + r.Fetch.Sim.block_visits) 0 sims;
  },
    { loaded = l; schemes = s; sims } )

(* Checks against references independent of the code under test: the
   sequential reference interpreter on the allocated CFG (final memory and
   visited-block sequence), every scheme's decode-back against the program,
   and each fetch model's delivered ops against the executed op count. *)
let check_row (r, { loaded = l; schemes = s; sims }) =
  let prog = Common.program l in
  let exec = l.Common.exec in
  let what fmt = Printf.sprintf ("figures %s: " ^^ fmt) r.name in
  match
    Common.guard (what "reference interpreter") (fun () ->
        Emulator.Ref_interp.run ~max_blocks:3_000_000
          l.Common.compiled.Cccs.Pipeline.alloc_cfg)
  with
  | None -> ()
  | Some ref_res ->
      Common.check (what "memory differs from reference")
        (Emulator.Ref_interp.mem_checksum ref_res
        = Emulator.Machine.mem_checksum exec.Emulator.Exec.machine);
      Common.check (what "block trace differs from reference")
        (Emulator.Trace.to_array ref_res.Emulator.Ref_interp.trace
        = Emulator.Trace.to_array exec.Emulator.Exec.trace);
      List.iter
        (fun (n, sc) ->
          Common.check (what "scheme %s fails decode-back" n)
            (Option.is_some
               (Common.guard (what "verify %s" n) (fun () ->
                    Encoding.Scheme.verify sc prog))))
        (Common.all_schemes s);
      let executed = Emulator.Trace.total_ops exec.Emulator.Exec.trace in
      List.iter
        (fun (n, (res : Fetch.Sim.result)) ->
          Common.check
            (what "%s model delivered %d ops, trace executed %d" n
               res.ops_delivered executed)
            (res.ops_delivered = executed))
        sims

type round = {
  rows : row list;
  wall_s : float;
  setup_s : float;
}

(* Round [i] sets up the seeded inputs, then times the sweep; round 0's
   outputs are checked in full after the timed phase. *)
let round ~seed i =
  let inputs, setup_s =
    Common.timed (fun () ->
        Span.with_ "bench.setup" (fun () ->
            List.map (Common.input ~seed) Workloads.Suite.all))
  in
  let rows, wall_s =
    Common.timed (fun () ->
        Span.with_ "bench.measure" (fun () ->
            let cause = Span.current () in
            Cccs.Parallel.map ~jobs:Common.jobs (program_row ~cause) inputs))
  in
  if i = 0 then List.iter check_row rows;
  { rows = List.map fst rows; wall_s; setup_s }

let jobs_used () =
  Cccs.Parallel.effective_jobs ~jobs:Common.jobs
    (List.length Workloads.Suite.all)

(* Every later round must reproduce the first round's figures exactly. *)
let check_rounds = function
  | [] -> ()
  | first :: rest ->
      List.iter
        (fun r ->
          List.iter2
            (fun a b ->
              Common.check
                (Printf.sprintf "figures %s: round differs from the first"
                   b.name)
                (a.digest = b.digest))
            first.rows r.rows)
        rest

(* Nothing is memoized between programs or rounds, so the cold sweep is
   also the steady state.  Throughput is over the programs' baseline image
   size, which no encoder under test produces. *)
let summary rounds =
  let bytes r = List.fold_left (fun a x -> a + x.base_bytes) 0 r.rows in
  let mb_s =
    List.map (fun r -> float_of_int (bytes r) /. 1e6 /. r.wall_s) rounds
  in
  {
    Report.setup_s = List.map (fun r -> r.setup_s) rounds;
    wall_s = List.map (fun r -> r.wall_s) rounds;
    decode_ms = [];
    cold_mb_s = mb_s;
    mb_s;
    jobs_used = jobs_used ();
  }

(* Block visits the fetch models replayed, per round. *)
let replayed rounds =
  float_of_int
    (List.fold_left
       (fun a r -> List.fold_left (fun a x -> a + x.replayed) a r.rows)
       0 rounds)
  /. float_of_int (max 1 (List.length rounds))
