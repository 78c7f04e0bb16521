(* Workload [verify]: all seven static-verifier passes over a small program
   set, one [Analysis.run_pass] call per pass, in the order `cccs lint` runs
   them.  The only workload that loads the analysis library; its certify
   pass shares the decode automata with the decode certificate of
   [rom-decode].  Loading the programs and building their schemes is
   set-up.

   The set is compress and m88ksim: of the mid-sized programs these two
   vary least in verifier cost from seed to seed (go's timing pass swings
   by a quarter), which keeps the workload's spread within its bound. *)

let programs = [ "compress"; "m88ksim" ]
let passes = List.map fst Cccs.Analysis.pass_names

type target = {
  name : string;
  target : Cccs.Analysis.Pass.target;
  bytes : int;  (** the program's uncompressed baseline image size *)
}

(* The target [Analysis.target_of_run] assembles, from a seeded program. *)
let setup ~seed =
  List.map
    (fun name ->
      let l = Common.load (Common.input ~seed (Common.entry name)) in
      let s = Common.build_schemes (Common.program l) in
      let schemes = Common.all_schemes s in
      {
        name;
        target =
          Cccs.Analysis.Pass.target
            ~cfg:l.Common.compiled.Cccs.Pipeline.alloc_cfg
            ~program:(Common.program l) ~schemes:(List.map snd schemes)
            ~tailored:s.Common.tailored_spec name;
        bytes = Tepic.Program.baseline_size_bytes (Common.program l);
      })
    programs

(* A verdict: the diagnostic codes one pass reported on one program, with
   their counts, sorted. *)
type verdict = {
  program : string;
  pass : string;
  codes : (string * int) list;
  errors : int;
}

let codes_of diags =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (d : Cccs.Analysis.Diag.t) ->
      Hashtbl.replace tbl d.code
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl d.code)))
    diags;
  List.sort compare (List.of_seq (Hashtbl.to_seq tbl))

let run_pass t pass =
  Span.with_ "bench.item" @@ fun () ->
  let diags =
    Span.with_ ("analysis." ^ pass ^ "_s") (fun () ->
        Cccs.Analysis.run_pass pass t.target)
    |> Option.value ~default:[]
  in
  {
    program = t.name;
    pass;
    codes = codes_of diags;
    errors = List.length (List.filter Cccs.Analysis.Diag.is_error diags);
  }

type round = {
  setup_s : float;
  wall_s : float;
  verdicts : verdict list;
  bytes : int;
  targets : target list;  (** kept by traced rounds, for the DFA count *)
}

let round ~seed _i =
  let targets, setup_s =
    Common.timed (fun () -> Span.with_ "bench.setup" (fun () -> setup ~seed))
  in
  let verdicts, wall_s =
    Common.timed (fun () ->
        Span.with_ "bench.measure" (fun () ->
            List.concat_map (fun t -> List.map (run_pass t) passes) targets))
  in
  {
    setup_s;
    wall_s;
    verdicts;
    bytes = List.fold_left (fun a (t : target) -> a + t.bytes) 0 targets;
    targets = (if !Span.enabled then targets else []);
  }

(* ------------------------------------------------------------------ *)
(* Expected verdicts: one line "program pass code count" per diagnostic
   code, recorded at the default seed.  A mismatch prints the codes the run
   gave, so the file can be updated by hand from the failure. *)

let parse_expected text =
  List.filter_map
    (fun line ->
      match String.split_on_char ' ' (String.trim line) with
      | [ program; pass; code; n ] -> (
          match int_of_string_opt n with
          | Some n -> Some ((program, pass), (code, n))
          | None -> None)
      | _ -> None)
    (String.split_on_char '\n' text)

(* Every verdict must be free of Error diagnostics at any seed; at the
   default seed its codes must also equal the recorded ones. *)
let check_rounds ~expected rounds =
  List.iter
    (fun r ->
      List.iter
        (fun v ->
          Common.check
            (Printf.sprintf "verify %s/%s: %d error diagnostics" v.program
               v.pass v.errors)
            (v.errors = 0);
          match expected with
          | None -> ()
          | Some exp ->
              let want =
                List.sort compare
                  (List.filter_map
                     (fun (k, c) -> if k = (v.program, v.pass) then Some c else None)
                     exp)
              in
              let show codes =
                String.concat ", "
                  (List.map (fun (c, n) -> Printf.sprintf "%s %d" c n) codes)
              in
              Common.check
                (Printf.sprintf
                   "verify %s/%s: codes [%s] differ from expected [%s]"
                   v.program v.pass (show v.codes) (show want))
                (want = v.codes))
        r.verdicts)
    rounds

(* The passes memoize nothing, so every round is both cold and steady.
   Throughput is over the programs' baseline image size, which no encoder
   under test produces. *)
let summary rounds =
  let mb_s =
    List.map (fun r -> float_of_int r.bytes /. 1e6 /. r.wall_s) rounds
  in
  {
    Report.setup_s = List.map (fun r -> r.setup_s) rounds;
    wall_s = List.map (fun r -> r.wall_s) rounds;
    decode_ms = [];
    cold_mb_s = mb_s;
    mb_s;
    jobs_used = 1;
  }

(* The summed [Decode_dfa.certify_sync] pair counts over every codebook of
   the targets: the size of the automaton work the certify pass does. *)
let dfa_pairs_reachable targets =
  List.fold_left
    (fun acc t ->
      List.fold_left
        (fun acc (sc : Encoding.Scheme.t) ->
          List.fold_left
            (fun acc (_, cb) ->
              match
                Cccs.Analysis.Decode_dfa.of_canonical
                  (Huffman.Codebook.canonical cb)
              with
              | Ok dfa ->
                  acc
                  + (Cccs.Analysis.Decode_dfa.certify_sync dfa)
                      .Cccs.Analysis.Decode_dfa.pairs_reachable
              | Error _ -> acc)
            acc sc.books)
        acc t.target.Cccs.Analysis.Pass.schemes)
    0 targets
