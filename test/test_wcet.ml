(* Static fetch-timing analysis tests (Cache_ai + Timing_check).

   Synthetic CFGs drive the abstract domains directly and assert the
   classifications; the negative paths force each CCCS-E30x; the
   end-to-end path runs the full bound-vs-simulator contract over real
   workloads: every scheme gets a finite bound and the simulator replay
   lands at or under it (ratio >= 1.0). *)

module A = Cccs_analysis
module TC = Cccs_analysis.Timing_check
module CA = Cccs_analysis.Cache_ai

let codes diags = List.map (fun (d : A.Diag.t) -> d.A.Diag.code) diags

let has code diags =
  Alcotest.(check bool)
    (code ^ " fired") true
    (List.mem code (codes diags))

let no_errors what diags =
  let errs = List.filter A.Diag.is_error diags in
  Alcotest.(check (list string)) (what ^ ": no errors") [] (codes errs)

let load name =
  match Workloads.Suite.find name with
  | Some e -> Cccs.Workload_run.load e
  | None -> Alcotest.fail (name ^ " workload missing")

(* ---------------------------------------------------------------- *)
(* Cache_ai on synthetic CFGs                                        *)
(* ---------------------------------------------------------------- *)

let straight_cfg succs =
  {
    A.Cfg_recover.nblocks = Array.length succs;
    succs;
    indirect = Array.make (Array.length succs) false;
    reachable = Array.make (Array.length succs) true;
  }

let classification = Alcotest.testable
    (fun ppf c -> Format.pp_print_string ppf (CA.classification_name c))
    ( = )

(* Three tiny blocks sharing memory line 0, with a self-loop on the
   middle one: the entry block is a provable cold miss, everything after
   it a provable hit — even around the loop, since the must-join keeps
   line 0 on both incoming paths. *)
let test_cache_ai_line_sharing () =
  let cfg = straight_cfg [| [ 1 ]; [ 1; 2 ]; [] |] in
  let r =
    CA.analyze ~cfg ~fetch_cfg:Fetch.Config.default ~compressed:false
      ~offsets:[| 0; 40; 80 |] ~sizes:[| 40; 40; 40 |] ~entry:0
  in
  Alcotest.check classification "entry is a cold always-miss"
    CA.Always_miss r.CA.classes.(0).CA.cache;
  Alcotest.check classification "second block always-hit"
    CA.Always_hit r.CA.classes.(1).CA.cache;
  Alcotest.check classification "third block always-hit (after the loop)"
    CA.Always_hit r.CA.classes.(2).CA.cache;
  (* First visits on a never-revisited path are provable ATB misses. *)
  Alcotest.check classification "entry ATB always-miss"
    CA.Always_miss r.CA.classes.(0).CA.atb;
  Alcotest.(check (pair int int)) "line span geometry" (0, 0) r.CA.lines.(0)

(* Distinct lines, straight line, no revisits: every block is a provable
   miss; with prefetch_next set the domains are declared unsound and
   everything must degrade to unclassified. *)
let test_cache_ai_cold_and_prefetch () =
  let cfg = straight_cfg [| [ 1 ]; [ 2 ]; [] |] in
  let offsets = [| 0; 240; 480 |] and sizes = [| 240; 240; 240 |] in
  let r =
    CA.analyze ~cfg ~fetch_cfg:Fetch.Config.default ~compressed:false
      ~offsets ~sizes ~entry:0
  in
  Array.iter
    (fun (c : CA.block_class) ->
      Alcotest.check classification "cold straight line" CA.Always_miss
        c.CA.cache)
    r.CA.classes;
  let pf = { Fetch.Config.default with Fetch.Config.prefetch_next = true } in
  let r =
    CA.analyze ~cfg ~fetch_cfg:pf ~compressed:false ~offsets ~sizes ~entry:0
  in
  Array.iter
    (fun (c : CA.block_class) ->
      Alcotest.check classification "prefetch degrades to unclassified"
        CA.Unclassified c.CA.cache)
    r.CA.classes

(* Compressed model: a revisited block may be served by the L0 buffer
   without touching the line cache, so a hot loop body must NOT be
   classified always-miss even when its line conflicts away — but it can
   still be always-hit when the line provably stays resident. *)
let test_cache_ai_compressed_buffer () =
  let cfg = straight_cfg [| [ 1 ]; [ 1; 2 ]; [] |] in
  let r =
    CA.analyze ~cfg ~fetch_cfg:Fetch.Config.default ~compressed:true
      ~offsets:[| 0; 40; 80 |] ~sizes:[| 40; 40; 40 |] ~entry:0
  in
  Alcotest.check classification "compressed loop body still always-hit"
    CA.Always_hit r.CA.classes.(1).CA.cache;
  Alcotest.(check bool) "revisited block is not always-miss" true
    (r.CA.classes.(1).CA.cache <> CA.Always_miss)

(* ---------------------------------------------------------------- *)
(* Cache_ai against the reference (test/cache_ai_reference.ml)       *)
(* ---------------------------------------------------------------- *)

let show_classes (r : CA.t) =
  let c = function
    | CA.Always_hit -> 'h'
    | CA.Always_miss -> 'm'
    | CA.Unclassified -> 'u'
  in
  String.concat " "
    (Array.to_list
       (Array.map
          (fun (b : CA.block_class) ->
            Printf.sprintf "%c%c" (c b.CA.cache) (c b.CA.atb))
          r.CA.classes))

(* Every scheme the sweep analyzes, on fir and compress, over the
   program's own CFG and under both L0-buffer semantics: the classes equal
   the reference's. *)
let test_cache_ai_real_matches_reference () =
  List.iter
    (fun name ->
      let r = load name in
      let program = r.Cccs.Workload_run.compiled.Cccs.Pipeline.program in
      let entry = program.Tepic.Program.entry in
      let cfg =
        A.Cfg_recover.recover ~entry
          (Array.init (Tepic.Program.num_blocks program) (fun i ->
               Tepic.Program.block_ops (Tepic.Program.block program i)))
      in
      List.iter
        (fun (scheme, (sc : Encoding.Scheme.t)) ->
          let _, fetch_cfg = Fetch.Config.of_scheme scheme in
          List.iter
            (fun compressed ->
              let run analyze =
                show_classes
                  (analyze ~cfg ~fetch_cfg ~compressed
                     ~offsets:sc.Encoding.Scheme.block_offset_bits
                     ~sizes:sc.Encoding.Scheme.block_bits ~entry)
              in
              Alcotest.(check string)
                (Printf.sprintf "%s/%s compressed=%b" name scheme compressed)
                (run Cache_ai_reference.analyze) (run CA.analyze))
            [ false; true ])
        (Cccs.Experiments.every_scheme (Cccs.Experiments.schemes_of r)))
    [ "fir"; "compress" ]

(* A random CFG of 1-64 blocks with 0-2 successors each: any block
   (self-loops and back edges included) or, one time in ten, a target out
   of range.  The entry is a random block, so some blocks are
   unreachable.  Blocks sit at random bit offsets with random sizes over
   a small random cache and ATB, so lines conflict and age out. *)
type cfg_case = {
  succs : int list array;
  entry : int;
  offsets : int array;
  sizes : int array;
  fetch_cfg : Fetch.Config.t;
}

let gen_cfg_case st =
  let n = 1 + Random.State.int st 64 in
  let target () =
    if Random.State.int st 10 > 0 then Random.State.int st n
    else if Random.State.bool st then -1 - Random.State.int st 3
    else n + Random.State.int st 3
  in
  let ways = 1 + Random.State.int st 4 in
  let lines = ways * (1 + Random.State.int st 4) in
  let line_bits = Fetch.Config.default.Fetch.Config.line_bits in
  {
    succs =
      Array.init n (fun _ -> List.init (Random.State.int st 3) (fun _ -> target ()));
    entry = Random.State.int st n;
    offsets = Array.init n (fun _ -> Random.State.int st 4000);
    sizes = Array.init n (fun _ -> 1 + Random.State.int st 600);
    fetch_cfg =
      {
        Fetch.Config.default with
        Fetch.Config.cache_bytes = lines * line_bits / 8;
        ways;
        atb_entries = 1 + Random.State.int st 80;
      };
  }

let print_cfg_case c =
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  Printf.sprintf "entry %d succs [%s] offsets [%s] sizes [%s] lines %d ways %d atb %d"
    c.entry
    (String.concat "; "
       (Array.to_list
          (Array.map
             (fun l -> String.concat "," (List.map string_of_int l))
             c.succs)))
    (ints c.offsets) (ints c.sizes)
    (Fetch.Config.num_lines c.fetch_cfg)
    c.fetch_cfg.Fetch.Config.ways c.fetch_cfg.Fetch.Config.atb_entries

let prop_cache_ai_random_cfgs =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"Cache_ai: random CFGs = reference" ~count:1000
       (QCheck.make ~print:print_cfg_case gen_cfg_case)
       (fun c ->
         let n = Array.length c.succs in
         let cfg =
           {
             A.Cfg_recover.nblocks = n;
             succs = c.succs;
             indirect = Array.make n false;
             reachable = Array.make n true;
           }
         in
         List.for_all
           (fun compressed ->
             let run analyze =
               show_classes
                 (analyze ~cfg ~fetch_cfg:c.fetch_cfg ~compressed
                    ~offsets:c.offsets ~sizes:c.sizes ~entry:c.entry)
             in
             let got = run CA.analyze and want = run Cache_ai_reference.analyze in
             got = want
             || QCheck.Test.fail_reportf "compressed=%b: got %s, reference %s"
                  compressed got want)
           [ false; true ]))

(* ---------------------------------------------------------------- *)
(* Timing_check negative paths                                       *)
(* ---------------------------------------------------------------- *)

(* A looping kernel with neither a trace nor a declared default bound
   has no finite WCET. *)
let test_e300_unbounded () =
  let r = load "fir" in
  let program = r.Cccs.Workload_run.compiled.Cccs.Pipeline.program in
  let sc = Encoding.Baseline.build program in
  let diags, w = TC.analyze_scheme ~workload:"fir" ~program sc in
  has "CCCS-E300" diags;
  Alcotest.(check bool) "no bound" true (w = None)

(* A trace that takes an edge the recovered CFG lacks invalidates the
   control-flow model under the analysis. *)
let test_e305_foreign_edge () =
  let r = load "fir" in
  let program = r.Cccs.Workload_run.compiled.Cccs.Pipeline.program in
  let sc = Encoding.Baseline.build program in
  let nblocks = Tepic.Program.num_blocks program in
  let cfg =
    A.Cfg_recover.recover ~entry:0
      (Array.init nblocks (fun i ->
           Tepic.Program.block_ops (Tepic.Program.block program i)))
  in
  (* Pick an in-range target block 0 provably has no edge to. *)
  let bad = ref (-1) in
  for c = nblocks - 1 downto 1 do
    if not (List.mem c cfg.A.Cfg_recover.succs.(0)) then bad := c
  done;
  if !bad < 0 then Alcotest.skip ();
  let trace = Emulator.Trace.create () in
  Emulator.Trace.add trace 0;
  Emulator.Trace.add trace !bad;
  let diags, _ =
    TC.analyze_scheme ~workload:"fir" ~program ~trace
      ~default_loop_bound:TC.default_structural_bound sc
  in
  has "CCCS-E305" diags

(* ---------------------------------------------------------------- *)
(* Geometry agreement: analysis vs the ATT                           *)
(* ---------------------------------------------------------------- *)

(* Config.line_span is the single line-mapping rule: the ATT's per-block
   line counts (computed independently in lib/encoding) must agree with
   it for every block of a real image. *)
let test_line_span_matches_att () =
  let r = load "fir" in
  let program = r.Cccs.Workload_run.compiled.Cccs.Pipeline.program in
  let sc = Encoding.Full_huffman.build program in
  let line_bits = Fetch.Config.default.Fetch.Config.line_bits in
  let att = Encoding.Att.build sc ~line_bits program in
  Array.iteri
    (fun i (e : Encoding.Att.entry) ->
      let first, last =
        Fetch.Config.line_span Fetch.Config.default
          ~offset_bits:sc.Encoding.Scheme.block_offset_bits.(i)
          ~size_bits:sc.Encoding.Scheme.block_bits.(i)
      in
      Alcotest.(check int)
        (Printf.sprintf "block %d line count" i)
        e.Encoding.Att.lines
        (last - first + 1))
    att.Encoding.Att.entries

(* ---------------------------------------------------------------- *)
(* End-to-end soundness: bound dominates the simulator, every scheme  *)
(* ---------------------------------------------------------------- *)

let check_workload_sound name =
  let r = load name in
  let results = Cccs.Analysis.wcet_run r in
  Alcotest.(check bool) (name ^ ": analyzed some schemes") true
    (results <> []);
  List.iter
    (fun (diags, w) ->
      no_errors (name ^ " wcet") diags;
      match w with
      | None -> Alcotest.fail (name ^ ": scheme without a finite bound")
      | Some (w : TC.wcet) ->
          let s = name ^ "/" ^ w.TC.scheme in
          Alcotest.(check bool) (s ^ ": positive bound") true (w.TC.bound > 0);
          Alcotest.(check bool)
            (s ^ ": trace-derived visit counts") true w.TC.trace_bounds;
          (match w.TC.sim_cycles with
          | None -> Alcotest.fail (s ^ ": no simulator replay")
          | Some sim ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: sim %d <= bound %d" s sim w.TC.bound)
                true (sim <= w.TC.bound));
          match w.TC.ratio with
          | None -> Alcotest.fail (s ^ ": no bound/sim ratio")
          | Some f ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: ratio %.3f >= 1.0" s f)
                true (f >= 1.0))
    results

let test_fir_sound () = check_workload_sound "fir"
let test_compress_sound () = check_workload_sound "compress"

(* The "timing" lint pass (structural bounds, no trace) stays clean on a
   real workload and is wired into the pass list. *)
let test_pass_registered () =
  let r = load "fir" in
  let diags = Cccs.Analysis.lint_run r in
  no_errors "lint with timing pass" diags;
  let module P = (val TC.pass : A.Pass.S) in
  Alcotest.(check string) "pass name" "timing" P.name

let suite =
  [
    Alcotest.test_case "Cache_ai: shared-line hits" `Quick
      test_cache_ai_line_sharing;
    Alcotest.test_case "Cache_ai: cold misses + prefetch degrade" `Quick
      test_cache_ai_cold_and_prefetch;
    Alcotest.test_case "Cache_ai: compressed L0 semantics" `Quick
      test_cache_ai_compressed_buffer;
    Alcotest.test_case "Cache_ai: fir+compress = reference" `Quick
      test_cache_ai_real_matches_reference;
    prop_cache_ai_random_cfgs;
    Alcotest.test_case "unbounded loop (E300)" `Quick test_e300_unbounded;
    Alcotest.test_case "foreign trace edge (E305)" `Quick
      test_e305_foreign_edge;
    Alcotest.test_case "line_span agrees with the ATT" `Quick
      test_line_span_matches_att;
    Alcotest.test_case "timing pass registered and clean" `Quick
      test_pass_registered;
    Alcotest.test_case "fir: bound dominates simulator, all schemes" `Quick
      test_fir_sound;
    Alcotest.test_case "compress: bound dominates simulator, all schemes"
      `Slow test_compress_sound;
  ]
