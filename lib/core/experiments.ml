type schemes = {
  base : Encoding.Scheme.t;
  byte : Encoding.Scheme.t;
  streams : (string * Encoding.Scheme.t) list;
  full : Encoding.Scheme.t;
  tailored : Encoding.Scheme.t;
  tailored_spec : Encoding.Tailored.spec;
  dict : Encoding.Scheme.t;
}

(* Domain-local like the Workload_run memo: schemes carry lazily-built
   decode tables (mutable fields inside Canonical), so a parallel sweep
   worker must construct and memoize its own rather than share the
   caller's. *)
let scheme_cache_key : (string, schemes) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 17)

let schemes_of (r : Workload_run.run) =
  let scheme_cache = Domain.DLS.get scheme_cache_key in
  match Hashtbl.find_opt scheme_cache r.Workload_run.name with
  | Some s -> s
  | None ->
      let prog = r.Workload_run.compiled.Pipeline.program in
      let tailored, tailored_spec = Encoding.Tailored.build_with_spec prog in
      let s =
        {
          base = Encoding.Baseline.build prog;
          byte = Encoding.Byte_huffman.build prog;
          streams =
            List.map
              (fun (name, c) -> (name, Encoding.Stream_huffman.build ~config:c prog))
              Encoding.Stream_huffman.configs;
          full = Encoding.Full_huffman.build prog;
          tailored;
          tailored_spec;
          dict = Encoding.Dictionary.build prog;
        }
      in
      Hashtbl.replace scheme_cache r.Workload_run.name s;
      s

let all_schemes s =
  [ ("base", s.base); ("byte", s.byte) ]
  @ s.streams
  @ [ ("full", s.full); ("tailored", s.tailored) ]

let every_scheme s = all_schemes s @ [ ("dict", s.dict) ]

(* The ATT of [r]'s program under the scheme [sc] named [name], for lines
   of [line_bits], memoized per domain like the schemes: Figures 7 and
   13, the ablation and the superblock study read the same tables. *)
let att_cache_key :
    (string * string * int, Encoding.Att.t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

let att_of (r : Workload_run.run) name sc ~line_bits =
  let att_cache = Domain.DLS.get att_cache_key in
  let key = (r.Workload_run.name, name, line_bits) in
  match Hashtbl.find_opt att_cache key with
  | Some att -> att
  | None ->
      let prog = r.Workload_run.compiled.Pipeline.program in
      let att = Encoding.Att.build sc ~line_bits prog in
      Hashtbl.replace att_cache key att;
      att

(* [replay ?cfg r name sc] — the replay of [r]'s trace through the scheme
   [sc] named [name], on the model and cache [Config.of_scheme name] gives
   it ([cfg] replaces the cache). *)
let replay ?cfg (r : Workload_run.run) name sc =
  let model, scheme_cfg = Fetch.Config.of_scheme name in
  let cfg = Option.value cfg ~default:scheme_cfg in
  fun ?obs () ->
    Fetch.Sim.run ?obs ~model ~cfg ~scheme:sc
      ~att:(att_of r name sc ~line_bits:cfg.Fetch.Config.line_bits)
      r.Workload_run.exec.Emulator.Exec.trace

(* The four Figure 13 fetch models.  The ideal model reads the base
   model's ATT. *)
let fetch_models (r : Workload_run.run) =
  let s = schemes_of r in
  let line_bits = Fetch.Config.((snd (of_scheme "base")).line_bits) in
  [
    ( "ideal",
      fun ?obs () ->
        Fetch.Sim.run_ideal ?obs ~att:(att_of r "base" s.base ~line_bits)
          r.Workload_run.exec.Emulator.Exec.trace );
    ("base", replay r "base" s.base);
    ("compressed", replay r "full" s.full);
    ("tailored", replay r "tailored" s.tailored);
  ]

type verdict = {
  memory_ok : bool;
  trace_ok : bool;
  decode_back : (string * bool) list;
}

let verify (r : Workload_run.run) =
  let c = r.Workload_run.compiled in
  let res = r.Workload_run.exec in
  let ref_res =
    Emulator.Ref_interp.run ~max_blocks:3_000_000 c.Pipeline.alloc_cfg
  in
  let decodes sc =
    match Encoding.Scheme.verify sc c.Pipeline.program with
    | () -> true
    | exception Failure _ -> false
  in
  {
    memory_ok =
      Emulator.Ref_interp.mem_checksum ref_res
      = Emulator.Machine.mem_checksum res.Emulator.Exec.machine;
    trace_ok =
      Emulator.Trace.to_array res.Emulator.Exec.trace
      = Emulator.Trace.to_array ref_res.Emulator.Ref_interp.trace;
    decode_back =
      List.map
        (fun (name, sc) -> (name, decodes sc))
        (every_scheme (schemes_of r));
  }

(* Every figure is a pure per-run row function mapped over the SPEC set.
   [sweep ?jobs f] is the one harness: workloads are loaded inside the
   mapped task so a parallel sweep compiles, executes and encodes each
   workload entirely within one worker domain (per-domain memo tables make
   this race-free); with [jobs = 1] — the default unless CCCS_JOBS is set —
   it runs in the calling domain, reusing its caches. *)
let sweep ?jobs f =
  Parallel.map ?jobs (fun e -> f (Workload_run.load e)) Workloads.Suite.spec

(* ------------------------------------------------------------------ *)

type fig5_row = {
  bench : string;
  ratios : (string * float) list;
}

let fig5_for (r : Workload_run.run) =
  let s = schemes_of r in
  let baseline_bits = s.base.Encoding.Scheme.code_bits in
  {
    bench = r.Workload_run.name;
    ratios =
      List.map
        (fun (name, sc) -> (name, Encoding.Scheme.ratio sc ~baseline_bits))
        (all_schemes s);
  }

(* ------------------------------------------------------------------ *)

type fig13_row = {
  bench : string;
  ideal : Fetch.Sim.result;
  base : Fetch.Sim.result;
  compressed : Fetch.Sim.result;
  tailored : Fetch.Sim.result;
}

let fig13_cache_key : (string, fig13_row) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 17)

(* Figure 7's ATB miss rate, the ablation's hit-time row, the predictor
   study's 2-bit row and the superblock study's basic-block rows are this
   row's replays: the memo runs each once per program. *)
let fig13_for (r : Workload_run.run) =
  let fig13_cache = Domain.DLS.get fig13_cache_key in
  match Hashtbl.find_opt fig13_cache r.Workload_run.name with
  | Some row -> row
  | None ->
      let row =
        match List.map (fun (_, run) -> run ?obs:None ()) (fetch_models r) with
        | [ ideal; base; compressed; tailored ] ->
            { bench = r.Workload_run.name; ideal; base; compressed; tailored }
        | _ -> assert false (* fetch_models lists exactly these four *)
      in
      Hashtbl.replace fig13_cache r.Workload_run.name row;
      row

(* ------------------------------------------------------------------ *)

type fig7_row = {
  bench : string;
  base_bits : int;
  schemes_total : (string * int * float) list;
  atb_miss_rate : float;
}

let fig7_for (r : Workload_run.run) =
  let s = schemes_of r in
  let line_bits = Fetch.Config.default.Fetch.Config.line_bits in
  let totals =
    List.map
      (fun (name, sc) ->
        let att = att_of r name sc ~line_bits in
        let total =
          sc.Encoding.Scheme.code_bits + sc.Encoding.Scheme.table_bits
          + att.Encoding.Att.compressed_bits
        in
        ( name,
          total,
          Encoding.Att.overhead att ~code_bits:sc.Encoding.Scheme.code_bits ))
      (all_schemes s)
  in
  let sim = (fig13_for r).compressed in
  {
    bench = r.Workload_run.name;
    base_bits = s.base.Encoding.Scheme.code_bits;
    schemes_total = totals;
    atb_miss_rate =
      float_of_int sim.Fetch.Sim.atb_misses
      /. float_of_int (max 1 sim.Fetch.Sim.block_visits);
  }

(* ------------------------------------------------------------------ *)

type fig10_row = {
  bench : string;
  decoders : (string * Encoding.Scheme.decoder_info) list;
}

let fig10_for (r : Workload_run.run) =
  let s = schemes_of r in
  {
    bench = r.Workload_run.name;
    decoders =
      List.filter_map
        (fun (name, sc) ->
          if name = "base" then None
          else Some (name, sc.Encoding.Scheme.decoder))
        (all_schemes s);
  }

(* ------------------------------------------------------------------ *)

type fig14_row = {
  bench : string;
  flips : (string * int) list;
}

let fig14_of (row : fig13_row) =
  {
    bench = row.bench;
    flips =
      [
        ("base", row.base.Fetch.Sim.bus_flips);
        ("compressed", row.compressed.Fetch.Sim.bus_flips);
        ("tailored", row.tailored.Fetch.Sim.bus_flips);
      ];
  }

(* ------------------------------------------------------------------ *)

type ablation_row = {
  bench : string;
  hit_time : Fetch.Sim.result;
  miss_time : Fetch.Sim.result;
}

let ablation_for (r : Workload_run.run) =
  let s = schemes_of r in
  let cfg = Fetch.Config.default in
  let comp_att =
    att_of r "full" s.full ~line_bits:cfg.Fetch.Config.line_bits
  in
  {
    bench = r.Workload_run.name;
    hit_time = (fig13_for r).compressed;
    miss_time =
      Fetch.Ablation.run ~cfg ~base_scheme:s.base ~comp_scheme:s.full
        ~comp_att r.Workload_run.exec.Emulator.Exec.trace;
  }

type predictor_row = {
  bench : string;
  two_bit : Fetch.Sim.result;
  gshare : Fetch.Sim.result;
}

let predictors_for (r : Workload_run.run) =
  let cfg =
    { Fetch.Config.default with Fetch.Config.predictor = Fetch.Config.Gshare 12 }
  in
  {
    bench = r.Workload_run.name;
    two_bit = (fig13_for r).compressed;
    gshare = replay ~cfg r "full" (schemes_of r).full ();
  }

type superblock_row = {
  bench : string;
  mean_unit_blocks : float;
  bb_base : Fetch.Sim.result;
  sb_base : Fetch.Sim.result;
  bb_compressed : Fetch.Sim.result;
  sb_compressed : Fetch.Sim.result;
}

let superblocks_for (r : Workload_run.run) =
  let s = schemes_of r in
  let prog = r.Workload_run.compiled.Pipeline.program in
  let units = Fetch.Superblock.form prog in
  let _, mean_unit_blocks = Fetch.Superblock.stats units in
  let sb name sc =
    let model, cfg = Fetch.Config.of_scheme name in
    Fetch.Superblock.run ~model ~cfg ~scheme:sc
      ~att:(att_of r name sc ~line_bits:cfg.Fetch.Config.line_bits)
      units r.Workload_run.exec.Emulator.Exec.trace
  in
  let row13 = fig13_for r in
  {
    bench = r.Workload_run.name;
    mean_unit_blocks;
    bb_base = row13.base;
    sb_base = sb "base" s.base;
    bb_compressed = row13.compressed;
    sb_compressed = sb "full" s.full;
  }

let clear_cache () =
  Hashtbl.reset (Domain.DLS.get scheme_cache_key);
  Hashtbl.reset (Domain.DLS.get att_cache_key);
  Hashtbl.reset (Domain.DLS.get fig13_cache_key)
