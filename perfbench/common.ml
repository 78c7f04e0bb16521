(* Shared pieces of the three workloads: seeded inputs, program loading
   through the public layer entry points, correctness bookkeeping and
   summary statistics. *)

let jobs = Cccs.Parallel.cores ()

(* Seed 0 is the repository's own suite: every generated program keeps its
   profile seed.  Any other seed shifts each profile seed by the same
   amount, so a run is a different but equally sized draw of every
   SPEC-like program.  The DSP kernels are hand-written and do not vary. *)
let default_seed = 0

(* ------------------------------------------------------------------ *)
(* Correctness checks: every comparison against an independent reference
   is one attempt; a mismatch or an exception is one failure. *)

let attempted = Atomic.make 0
let failed = Atomic.make 0

let check what ok =
  Atomic.incr attempted;
  if not ok then begin
    Atomic.incr failed;
    Printf.eprintf "check failed: %s\n%!" what
  end

let error_rate () =
  let a = Atomic.get attempted in
  if a > 0 then float_of_int (Atomic.get failed) /. float_of_int a else 0.

(* [guard what f] — [Some (f ())], or a counted failure when [f] raises. *)
let guard what f =
  match f () with
  | v -> Some v
  | exception e ->
      check (Printf.sprintf "%s raised %s" what (Printexc.to_string e)) false;
      None

(* ------------------------------------------------------------------ *)
(* Inputs. *)

type input = {
  entry : Workloads.Suite.entry;
  profile : Workloads.Profile.t option;
      (** the seeded, calibrated profile ([None] for a kernel) *)
}

let entry name =
  match Workloads.Suite.find name with
  | Some e -> e
  | None -> invalid_arg ("unknown workload program " ^ name)

(* [input ~seed e] — derive [e]'s profile from the seed and calibrate its
   hot-loop trip count, as [Workload_run.load] does for the suite. *)
let input ~seed (e : Workloads.Suite.entry) =
  let profile =
    Option.map
      (fun p ->
        Span.with_ "core.calibrate_s" (fun () ->
            Cccs.Workload_run.calibrate
              { p with Workloads.Profile.seed = p.Workloads.Profile.seed + seed }))
      e.Workloads.Suite.profile
  in
  { entry = e; profile }

type loaded = {
  name : string;
  compiled : Cccs.Pipeline.compiled;
  exec : Emulator.Exec.result;
}

(* Block visits of every program emulated, for [emulator.block_visits]. *)
let visits = Atomic.make 0

(* Generate, compile and execute one program: [Workload_run.load] without
   its memo table, one span per layer. *)
let load (i : input) =
  let w =
    Span.with_ "workloads.generate_s" (fun () ->
        match i.profile with
        | Some p -> Workloads.Gen.generate p
        | None -> i.entry.Workloads.Suite.load ())
  in
  let compiled =
    Span.with_ "vliw_compiler.compile_s" (fun () -> Cccs.Pipeline.compile w)
  in
  let exec =
    Span.with_ "emulator.exec_s" (fun () ->
        Emulator.Exec.run ~max_blocks:3_000_000 compiled.Cccs.Pipeline.program)
  in
  ignore
    (Atomic.fetch_and_add visits
       (Emulator.Trace.length exec.Emulator.Exec.trace));
  { name = i.entry.Workloads.Suite.name; compiled; exec }

let program l = l.compiled.Cccs.Pipeline.program

(* Every scheme of the study, built through the public builders in the
   order of [Experiments.all_schemes], plus the dictionary scheme. *)
type schemes = {
  figure : (string * Encoding.Scheme.t) list;
      (** base, byte, the six stream configurations, full, tailored *)
  dict : Encoding.Scheme.t;
  tailored_spec : Encoding.Tailored.spec;
}

let build_schemes prog =
  let b kind f = Span.with_ ("encoding.build_s." ^ kind) f in
  let base = b "base" (fun () -> Encoding.Baseline.build prog) in
  let byte = b "byte" (fun () -> Encoding.Byte_huffman.build prog) in
  let streams =
    List.map
      (fun (name, config) ->
        (name, b "stream" (fun () -> Encoding.Stream_huffman.build ~config prog)))
      Encoding.Stream_huffman.configs
  in
  let full = b "full" (fun () -> Encoding.Full_huffman.build prog) in
  let tailored, tailored_spec =
    b "tailored" (fun () -> Encoding.Tailored.build_with_spec prog)
  in
  let dict = b "dict" (fun () -> Encoding.Dictionary.build prog) in
  {
    figure =
      [ ("base", base); ("byte", byte) ]
      @ streams
      @ [ ("full", full); ("tailored", tailored) ];
    dict;
    tailored_spec;
  }

let all_schemes s = s.figure @ [ ("dict", s.dict) ]

(* Run [f] in a domain of its own: per-domain memo tables (the decode
   certificate cache among them) start empty, as in a fresh process. *)
let fresh_domain f = Domain.join (Domain.spawn f)

(* ------------------------------------------------------------------ *)
(* Statistics. *)

let sorted xs = List.sort Float.compare xs

(* Nearest-rank percentile, [q] in [0, 1]. *)
let percentile q xs =
  match sorted xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
      a.(max 0 (min (n - 1) k))

let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum = List.fold_left ( +. ) 0.

(* ------------------------------------------------------------------ *)
(* Measurement loop. *)

(* [rounds ~seconds ~min_rounds round] — run [round i] until at least
   [min_rounds] rounds have run and [seconds] of wall time have passed;
   returns the round results in order. *)
let rounds ~seconds ~min_rounds round =
  let t0 = Span.now () in
  let rec go i acc =
    if i >= min_rounds && Span.now () -. t0 >= seconds then List.rev acc
    else go (i + 1) (round i :: acc)
  in
  go 0 []

(* [timed f] — [f ()] and its wall seconds on the monotonic clock. *)
let timed f =
  let t0 = Span.now () in
  let v = f () in
  (v, Span.now () -. t0)
