(* Fetch-side tests: Table 1 penalties, the line cache, the ATB and its
   predictor, the L0 buffer, bus accounting and the simulators. *)

let check = Alcotest.(check int)

(* --- Table 1 transcription --- *)

let test_table1_exact () =
  let p = Fetch.Config.penalty in
  let n = 4 in
  (* Base column. *)
  check "base correct hit" 1
    (p Fetch.Config.Base ~predicted:true ~cache_hit:true ~buffer_hit:false ~lines:n);
  check "base correct miss" (1 + (n - 1))
    (p Fetch.Config.Base ~predicted:true ~cache_hit:false ~buffer_hit:false ~lines:n);
  check "base mispredict hit" 2
    (p Fetch.Config.Base ~predicted:false ~cache_hit:true ~buffer_hit:false ~lines:n);
  check "base mispredict miss" (8 + (n - 1))
    (p Fetch.Config.Base ~predicted:false ~cache_hit:false ~buffer_hit:false ~lines:n);
  (* Tailored column: +1 on the miss path. *)
  check "tailored correct hit" 1
    (p Fetch.Config.Tailored ~predicted:true ~cache_hit:true ~buffer_hit:false ~lines:n);
  check "tailored correct miss" (2 + (n - 1))
    (p Fetch.Config.Tailored ~predicted:true ~cache_hit:false ~buffer_hit:false ~lines:n);
  check "tailored mispredict hit" 2
    (p Fetch.Config.Tailored ~predicted:false ~cache_hit:true ~buffer_hit:false ~lines:n);
  check "tailored mispredict miss" (9 + (n - 1))
    (p Fetch.Config.Tailored ~predicted:false ~cache_hit:false ~buffer_hit:false ~lines:n);
  (* Compressed column: buffer hit is always one cycle. *)
  List.iter
    (fun (pr, ch) ->
      check "compressed buffer hit" 1
        (p Fetch.Config.Compressed ~predicted:pr ~cache_hit:ch ~buffer_hit:true
           ~lines:n))
    [ (true, true); (true, false); (false, true); (false, false) ];
  check "compressed correct hit bufmiss" (1 + (n - 1))
    (p Fetch.Config.Compressed ~predicted:true ~cache_hit:true ~buffer_hit:false ~lines:n);
  check "compressed correct miss bufmiss" (3 + (n - 1))
    (p Fetch.Config.Compressed ~predicted:true ~cache_hit:false ~buffer_hit:false ~lines:n);
  check "compressed mispredict hit bufmiss" (2 + (n - 1))
    (p Fetch.Config.Compressed ~predicted:false ~cache_hit:true ~buffer_hit:false ~lines:n);
  check "compressed mispredict miss bufmiss" (10 + (n - 1))
    (p Fetch.Config.Compressed ~predicted:false ~cache_hit:false ~buffer_hit:false ~lines:n)

(* Table 1 as data: one closed-form expectation per (model, predicted,
   cache_hit) row with the L0 buffer column split out, checked over every
   flag combination and a sweep of line counts — so the simulator and the
   WCET charge model can never disagree on the penalty function without a
   test failing. *)
let test_table1_exhaustive () =
  let open Fetch.Config in
  let bufferless =
    [
      (Base, true, true, fun _ -> 1);
      (Base, true, false, fun n -> 1 + (n - 1));
      (Base, false, true, fun _ -> 2);
      (Base, false, false, fun n -> 8 + (n - 1));
      (Tailored, true, true, fun _ -> 1);
      (Tailored, true, false, fun n -> 2 + (n - 1));
      (Tailored, false, true, fun _ -> 2);
      (Tailored, false, false, fun n -> 9 + (n - 1));
    ]
  in
  let compressed =
    [
      (true, true, fun n -> 1 + (n - 1));
      (true, false, fun n -> 3 + (n - 1));
      (false, true, fun n -> 2 + (n - 1));
      (false, false, fun n -> 10 + (n - 1));
    ]
  in
  for lines = 0 to 6 do
    let n = max 1 lines in
    (* Base/Tailored have no L0 buffer: the flag must be ignored. *)
    List.iter
      (fun (model, predicted, cache_hit, expect) ->
        List.iter
          (fun buffer_hit ->
            check
              (Printf.sprintf "bufferless row n=%d" lines)
              (expect n)
              (penalty model ~predicted ~cache_hit ~buffer_hit ~lines))
          [ true; false ])
      bufferless;
    (* Compressed: an L0 hit is one cycle no matter what. *)
    List.iter
      (fun (predicted, cache_hit) ->
        check
          (Printf.sprintf "compressed buffer hit n=%d" lines)
          1
          (penalty Compressed ~predicted ~cache_hit ~buffer_hit:true ~lines))
      [ (true, true); (true, false); (false, true); (false, false) ];
    List.iter
      (fun (predicted, cache_hit, expect) ->
        check
          (Printf.sprintf "compressed row n=%d" lines)
          (expect n)
          (penalty Compressed ~predicted ~cache_hit ~buffer_hit:false ~lines))
      compressed;
    (* The invariants the static WCET charge relies on: the
       (predicted:false, buffer_hit:false) row dominates every row of the
       same hit class, and the miss row dominates the hit row. *)
    List.iter
      (fun model ->
        List.iter
          (fun cache_hit ->
            let charge =
              penalty model ~predicted:false ~cache_hit ~buffer_hit:false
                ~lines
            in
            List.iter
              (fun predicted ->
                List.iter
                  (fun buffer_hit ->
                    Alcotest.(check bool)
                      "charge row dominates" true
                      (penalty model ~predicted ~cache_hit ~buffer_hit ~lines
                      <= charge))
                  [ true; false ])
              [ true; false ])
          [ true; false ];
        Alcotest.(check bool)
          "miss row dominates hit row" true
          (penalty model ~predicted:false ~cache_hit:false ~buffer_hit:false
             ~lines
          >= penalty model ~predicted:false ~cache_hit:true ~buffer_hit:false
               ~lines))
      [ Base; Tailored; Compressed ]
  done

let test_config_geometry () =
  let c = Fetch.Config.default in
  check "line bits = max MOP" 240 c.Fetch.Config.line_bits;
  check "lines in 16KB" 546 (Fetch.Config.num_lines c);
  check "sets" 273 (Fetch.Config.num_sets c);
  check "base cache is 20KB" (20 * 1024)
    Fetch.Config.default_base.Fetch.Config.cache_bytes;
  check "lines of 0 bits" 1 (Fetch.Config.lines_of_bits c 0);
  check "lines of 240" 1 (Fetch.Config.lines_of_bits c 240);
  check "lines of 241" 2 (Fetch.Config.lines_of_bits c 241)

(* --- Line cache --- *)

(* The line cache names a block by its line span. *)
let span ?(cfg = Fetch.Config.default) ~offset_bits ~size_bits () =
  Fetch.Config.line_span cfg ~offset_bits ~size_bits

let resident c (first, last) =
  let rec go l = l > last || (Fetch.Line_cache.line_resident c l && go (l + 1)) in
  go first
let touch c (first, last) = Fetch.Line_cache.touch_block c ~first ~last

let test_line_cache_basics () =
  let c = Fetch.Line_cache.create Fetch.Config.default in
  let b = span ~offset_bits:0 ~size_bits:100 () in
  Alcotest.(check bool) "cold miss" false (resident c b);
  check "fetches one line" 1 (touch c b);
  Alcotest.(check bool) "now resident" true (resident c b);
  check "no refetch" 0 (touch c b);
  (* A straddling block needs both lines. *)
  check "straddler fetches the next line" 1
    (touch c (span ~offset_bits:200 ~size_bits:100 ()))

let test_line_cache_restricted_placement () =
  let c = Fetch.Line_cache.create Fetch.Config.default in
  ignore (touch c (span ~offset_bits:0 ~size_bits:240 ()));
  (* Block spanning lines 0-1 with only line 0 resident: not a hit. *)
  Alcotest.(check bool) "partial presence is a miss" false
    (resident c (span ~offset_bits:0 ~size_bits:480 ()))

let test_line_cache_lru () =
  (* Two-way sets: three conflicting lines evict the least recent. *)
  let cfg = Fetch.Config.default in
  let sets = Fetch.Config.num_sets cfg in
  let c = Fetch.Line_cache.create cfg in
  let block i =
    span ~cfg ~offset_bits:(i * sets * cfg.Fetch.Config.line_bits)
      ~size_bits:100 ()
  in
  let touch i = ignore (touch c (block i)) in
  let resident i = resident c (block i) in
  touch 0;
  touch 1;
  touch 0 (* refresh 0 *);
  touch 2 (* evicts 1 *);
  Alcotest.(check bool) "0 kept (recently used)" true (resident 0);
  Alcotest.(check bool) "1 evicted" false (resident 1);
  Alcotest.(check bool) "2 resident" true (resident 2)

(* --- ATB --- *)

let test_atb_hit_miss () =
  let atb = Fetch.Atb.create Fetch.Config.default ~num_blocks:100 in
  Alcotest.(check bool) "cold miss" false (Fetch.Atb.lookup atb 5);
  Alcotest.(check bool) "then hit" true (Fetch.Atb.lookup atb 5);
  check "one miss" 1 (Fetch.Atb.misses atb);
  check "one hit" 1 (Fetch.Atb.hits atb)

let test_atb_capacity () =
  let cfg = { Fetch.Config.default with Fetch.Config.atb_entries = 4 } in
  let atb = Fetch.Atb.create cfg ~num_blocks:100 in
  for b = 0 to 3 do
    ignore (Fetch.Atb.lookup atb b)
  done;
  ignore (Fetch.Atb.lookup atb 50);
  (* block 0 was LRU -> evicted. *)
  Alcotest.(check bool) "LRU evicted" false (Fetch.Atb.lookup atb 0)

let test_predictor_learns_loop () =
  let atb = Fetch.Atb.create Fetch.Config.default ~num_blocks:100 in
  ignore (Fetch.Atb.lookup atb 10);
  (* Initially weakly not-taken: predicts fallthrough. *)
  check "cold predicts fallthrough" 11 (Fetch.Atb.predict atb 10);
  (* Train taken to 3 twice. *)
  Fetch.Atb.update atb 10 ~next:3;
  Fetch.Atb.update atb 10 ~next:3;
  check "learned the loop" 3 (Fetch.Atb.predict atb 10);
  (* One not-taken does not flip a saturated counter. *)
  Fetch.Atb.update atb 10 ~next:3;
  Fetch.Atb.update atb 10 ~next:11;
  check "hysteresis" 3 (Fetch.Atb.predict atb 10);
  Fetch.Atb.update atb 10 ~next:11;
  Fetch.Atb.update atb 10 ~next:11;
  check "eventually flips" 11 (Fetch.Atb.predict atb 10)

(* Under gshare, a new ATB entry reads counters that other blocks
   trained, so it can predict taken before any update of its own.  It must
   then predict the fall-through clamped to the layout: for the last
   block, itself, not the block past the end, which next-block prefetch
   would go on to fetch.  Self-loops on blocks 0-3 train every counter of
   a 2-bit history to taken. *)
let test_gshare_last_block () =
  let cfg =
    {
      Fetch.Config.default_base with
      Fetch.Config.predictor = Fetch.Config.Gshare 2;
      prefetch_next = true;
    }
  in
  let loops = List.concat_map (fun b -> [ b; b; b; b ]) [ 0; 1; 2; 3 ] in
  let atb = Fetch.Atb.create cfg ~num_blocks:5 in
  List.iter (fun b -> Fetch.Atb.update atb b ~next:b) loops;
  ignore (Fetch.Atb.lookup atb 4);
  check "last block predicts inside the layout" 4 (Fetch.Atb.predict atb 4);
  let prog =
    (Cccs.Pipeline.compile (Workloads.Kernels.fir ~taps:4 ~samples:4))
      .Cccs.Pipeline.program
  in
  let scheme = Encoding.Baseline.build prog in
  let att = Encoding.Att.build scheme ~line_bits:cfg.Fetch.Config.line_bits prog in
  let trace = loops @ [ Tepic.Program.num_blocks prog - 1 ] in
  let r =
    Fetch.Sim.run_iter ~model:Fetch.Config.Base ~cfg ~scheme ~att (fun f ->
        List.iter f trace)
  in
  check "every visit replayed" (List.length trace) r.Fetch.Sim.block_visits

(* --- L0 buffer --- *)

let test_l0_buffer () =
  let cfg = { Fetch.Config.default with Fetch.Config.l0_ops = 8 } in
  let l0 = Fetch.L0_buffer.create cfg ~num_blocks:16 in
  Alcotest.(check bool) "cold" false (Fetch.L0_buffer.hit l0 1);
  Fetch.L0_buffer.insert l0 1 ~ops:4;
  Alcotest.(check bool) "hit after insert" true (Fetch.L0_buffer.hit l0 1);
  Fetch.L0_buffer.insert l0 2 ~ops:4;
  Alcotest.(check bool) "both fit" true (Fetch.L0_buffer.hit l0 2);
  (* Inserting a third 4-op block evicts the LRU (block 1). *)
  Fetch.L0_buffer.insert l0 3 ~ops:4;
  Alcotest.(check bool) "LRU block evicted" false (Fetch.L0_buffer.hit l0 1);
  Alcotest.(check bool) "MRU kept" true (Fetch.L0_buffer.hit l0 2);
  (* Oversized blocks bypass. *)
  Fetch.L0_buffer.insert l0 9 ~ops:100;
  Alcotest.(check bool) "oversized bypasses" false (Fetch.L0_buffer.hit l0 9)

(* --- Bus --- *)

let test_bus_flips () =
  let cfg = { Fetch.Config.default with Fetch.Config.line_bits = 64; bus_bits = 32 } in
  (* Image: 8 bytes alternating 0xFF 0x00 ... *)
  let image = "\xFF\xFF\xFF\xFF\x00\x00\x00\x00" in
  let bus = Fetch.Bus.create cfg ~image in
  let flips = Fetch.Bus.fetch_line bus 0 in
  (* Beat 1: 0 -> 0xFFFFFFFF = 32 flips; beat 2: -> 0 = 32 flips. *)
  check "flips counted" 64 flips;
  check "beats" 2 (Fetch.Bus.total_beats bus);
  (* Same line again: starts from last word 0 -> same flips. *)
  check "stateful across lines" 64 (Fetch.Bus.fetch_line bus 0)

let test_bus_zero_image () =
  let cfg = { Fetch.Config.default with Fetch.Config.line_bits = 64; bus_bits = 32 } in
  let bus = Fetch.Bus.create cfg ~image:(String.make 8 '\000') in
  check "all-zero line: no flips" 0 (Fetch.Bus.fetch_line bus 0)

(* --- Simulators on a tiny synthetic trace --- *)

let tiny_fixture () =
  let p =
    {
      Workloads.Spec.compress with
      Workloads.Profile.name = "fetch-test";
      static_ops = 300;
      outer_trips = 10;
      dyn_ops_target = 20_000;
      num_callees = 0;
    }
  in
  let c = Cccs.Pipeline.compile (Workloads.Gen.generate p) in
  let prog = c.Cccs.Pipeline.program in
  let res = Emulator.Exec.run ~max_blocks:100_000 prog in
  (prog, res.Emulator.Exec.trace)

let test_ideal_ipc () =
  let prog, trace = tiny_fixture () in
  let s = Encoding.Baseline.build prog in
  let att = Encoding.Att.build s ~line_bits:240 prog in
  let r = Fetch.Sim.run_ideal ~att trace in
  check "cycles = mops" r.Fetch.Sim.mops_delivered r.Fetch.Sim.cycles;
  check "ops preserved" (Emulator.Trace.total_ops trace) r.Fetch.Sim.ops_delivered

let test_sim_bounds () =
  let prog, trace = tiny_fixture () in
  let base = Encoding.Baseline.build prog in
  let att = Encoding.Att.build base ~line_bits:240 prog in
  let ideal = Fetch.Sim.run_ideal ~att trace in
  let r =
    Fetch.Sim.run ~model:Fetch.Config.Base ~cfg:Fetch.Config.default_base
      ~scheme:base ~att trace
  in
  Alcotest.(check bool) "base no faster than ideal" true
    (r.Fetch.Sim.cycles >= ideal.Fetch.Sim.cycles);
  Alcotest.(check bool) "ipc at most issue width" true
    (r.Fetch.Sim.ipc <= float_of_int Tepic.Mop.issue_width);
  check "visits" (Emulator.Trace.length trace) r.Fetch.Sim.block_visits;
  check "hits+misses = non-buffer visits"
    (r.Fetch.Sim.l1_hits + r.Fetch.Sim.l1_misses)
    r.Fetch.Sim.block_visits

let test_sim_compressed_uses_buffer () =
  let prog, trace = tiny_fixture () in
  let full = Encoding.Full_huffman.build prog in
  let att = Encoding.Att.build full ~line_bits:240 prog in
  let r =
    Fetch.Sim.run ~model:Fetch.Config.Compressed ~cfg:Fetch.Config.default
      ~scheme:full ~att trace
  in
  Alcotest.(check bool) "L0 sees traffic" true (r.Fetch.Sim.l0_hits > 0);
  check "buffer accounting"
    (Emulator.Trace.length trace)
    (r.Fetch.Sim.l0_hits + r.Fetch.Sim.l0_misses)

let test_sim_deterministic () =
  let prog, trace = tiny_fixture () in
  let base = Encoding.Baseline.build prog in
  let att = Encoding.Att.build base ~line_bits:240 prog in
  let r1 =
    Fetch.Sim.run ~model:Fetch.Config.Base ~cfg:Fetch.Config.default_base
      ~scheme:base ~att trace
  in
  let r2 =
    Fetch.Sim.run ~model:Fetch.Config.Base ~cfg:Fetch.Config.default_base
      ~scheme:base ~att trace
  in
  check "same cycles" r1.Fetch.Sim.cycles r2.Fetch.Sim.cycles;
  check "same flips" r1.Fetch.Sim.bus_flips r2.Fetch.Sim.bus_flips

let test_kernel_fits_l0 () =
  (* The paper's §4 claim: a tight DSP loop lives in the 32-op buffer, so
     compressed fetch behaves like an ideal cache on kernels. *)
  let w = Workloads.Kernels.fir ~taps:16 ~samples:64 in
  let c = Cccs.Pipeline.compile w in
  let prog = c.Cccs.Pipeline.program in
  let trace = (Emulator.Exec.run prog).Emulator.Exec.trace in
  let full = Encoding.Full_huffman.build prog in
  let att = Encoding.Att.build full ~line_bits:240 prog in
  let r =
    Fetch.Sim.run ~model:Fetch.Config.Compressed ~cfg:Fetch.Config.default
      ~scheme:full ~att trace
  in
  let hit_rate =
    float_of_int r.Fetch.Sim.l0_hits /. float_of_int (max 1 r.Fetch.Sim.block_visits)
  in
  Alcotest.(check bool)
    (Printf.sprintf "L0 hit rate %.3f > 0.95" hit_rate)
    true (hit_rate > 0.95)

(* --- Differential: the dense fetch models against the reference --- *)

module R = Fetch_reference

(* Run [sim] with a recording sink: its result, or the [Invalid_argument]
   it raised, and every event it emitted before that, in order.  Neither
   model raises on the inputs below (a fresh ATB entry predicts inside
   the layout, see [test_gshare_last_block]), so a raise on one side
   shows as a mismatch with the other. *)
let recorded sim =
  let evs = ref [] in
  let r =
    try Ok (sim (Cccs_obs.Sink.make (fun e -> evs := e :: !evs)))
    with Invalid_argument m -> Error m
  in
  (r, List.rev !evs)

let check_same label (expect, expect_evs) (got, got_evs) =
  (match (expect, got) with
  | Ok e, Ok g when e = g -> ()
  | Error e, Error g when e = g -> ()
  | _ ->
      let show = function
        | Ok r -> Fetch.Sim.csv_row r
        | Error m -> "Invalid_argument " ^ m
      in
      Alcotest.failf "%s:\n  reference %s\n  dense     %s" label (show expect)
        (show got));
  let rec first_diff i = function
    | e :: es, g :: gs ->
        if e = g then first_diff (i + 1) (es, gs)
        else
          Alcotest.failf "%s: event %d\n  reference %s\n  dense     %s" label i
            (Cccs_obs.Event.to_line e) (Cccs_obs.Event.to_line g)
    | [], [] -> ()
    | _ ->
        Alcotest.failf "%s: %d reference events, %d dense" label
          (List.length expect_evs) (List.length got_evs)
  in
  first_diff 0 (expect_evs, got_evs)

(* Every entry of [Experiments.fetch_models], on all thirteen workloads,
   equals the reference replay of the same scheme, configuration and
   trace in all 21 fields. *)
let test_reference_workloads () =
  List.iter
    (fun (entry : Workloads.Suite.entry) ->
      let r = Cccs.Workload_run.load entry in
      let s = Cccs.Experiments.schemes_of r in
      let prog = r.Cccs.Workload_run.compiled.Cccs.Pipeline.program in
      let trace = r.Cccs.Workload_run.exec.Emulator.Exec.trace in
      let att sc (cfg : Fetch.Config.t) =
        Encoding.Att.build sc ~line_bits:cfg.Fetch.Config.line_bits prog
      in
      let sim model cfg sc () =
        R.run ~model ~cfg ~scheme:sc ~att:(att sc cfg) trace
      in
      let reference =
        [
          ( "ideal",
            fun () ->
              R.run_ideal ~att:(att s.Cccs.Experiments.base
                                  Fetch.Config.default_base) trace );
          ( "base",
            sim Fetch.Config.Base Fetch.Config.default_base
              s.Cccs.Experiments.base );
          ( "compressed",
            sim Fetch.Config.Compressed Fetch.Config.default
              s.Cccs.Experiments.full );
          ( "tailored",
            sim Fetch.Config.Tailored Fetch.Config.default
              s.Cccs.Experiments.tailored );
        ]
      in
      let models = Cccs.Experiments.fetch_models r in
      Alcotest.(check (list string))
        "fetch model names" (List.map fst reference) (List.map fst models);
      List.iter2
        (fun (name, expect) (_, run) ->
          check_same
            (entry.Workloads.Suite.name ^ " " ^ name)
            (Ok (expect ()), []) (Ok (run ?obs:None ()), []))
        reference models)
    Workloads.Suite.all

(* A random fetch scenario: a configuration, a byte-aligned block layout
   over a random image (sometimes cut short, so line reads run past its
   end), ATT entries with zero-op blocks among them, and a trace biased
   towards fall-through and short loops so the predictor, the ATB and
   the L0 buffer all see reuse. *)
type scenario = {
  cfg : Fetch.Config.t;
  model : Fetch.Config.model;
  scheme : Encoding.Scheme.t;
  att : Encoding.Att.t;
  trace : int array;
}

let some_scheme =
  lazy
    (Encoding.Baseline.build
       (Cccs.Pipeline.compile (Workloads.Kernels.fir ~taps:4 ~samples:4))
         .Cccs.Pipeline.program)

let gen_scenario st =
  let int lo hi = lo + Random.State.int st (hi - lo + 1) in
  let line_bits = int 8 320 and bus_bits = int 1 62 and ways = int 1 4 in
  (* Mostly one to eight sets, so a block often spans more lines than
     the cache has sets. *)
  let sets = if int 0 3 = 0 then int 9 64 else int 1 8 in
  let cfg =
    {
      Fetch.Config.line_bits;
      cache_bytes = ((sets * ways * line_bits) + 7) / 8;
      ways;
      l0_ops = int 1 40;
      atb_entries = int 0 8;
      atb_miss_penalty = int 0 3;
      bus_bits;
      predictor =
        (if Random.State.bool st then Fetch.Config.Two_bit
         else Fetch.Config.Gshare (int 2 14));
      prefetch_next = Random.State.bool st;
    }
  in
  let n = int 1 24 in
  let sizes =
    Array.init n (fun _ -> if int 0 7 = 0 then 0 else int 1 (3 * line_bits))
  in
  let offsets = Array.make n 0 in
  for i = 1 to n - 1 do
    let gap = if int 0 3 = 0 then 8 * int 1 4 else 0 in
    offsets.(i) <- ((offsets.(i - 1) + sizes.(i - 1) + 7) / 8 * 8) + gap
  done;
  let bytes = (offsets.(n - 1) + sizes.(n - 1) + 7) / 8 in
  let bytes = if int 0 3 = 0 then max 0 (bytes - int 0 16) else bytes in
  let image = String.init bytes (fun _ -> Char.chr (int 0 255)) in
  let entries =
    Array.init n (fun _ ->
        {
          Encoding.Att.comp_addr = 0;
          lines = int 1 4;
          mops = int 1 6;
          ops = (if int 0 5 = 0 then 0 else int 1 40);
        })
  in
  let entry_bits = int 0 64 in
  let att =
    { Encoding.Att.entries; entry_bits; raw_bits = n * entry_bits;
      compressed_bits = n * entry_bits }
  in
  let scheme =
    {
      (Lazy.force some_scheme) with
      Encoding.Scheme.image;
      code_bits = 8 * bytes;
      block_offset_bits = offsets;
      block_bits = sizes;
    }
  in
  let trace = Array.make (int 0 300) 0 in
  let b = ref (int 0 (n - 1)) in
  Array.iteri
    (fun i _ ->
      trace.(i) <- !b;
      b :=
        match int 0 9 with
        | 0 | 1 | 2 | 3 | 4 -> min (n - 1) (!b + 1)
        | 5 | 6 | 7 -> max 0 (!b - int 1 4)
        | _ -> int 0 (n - 1))
    trace;
  let model =
    match int 0 2 with
    | 0 -> Fetch.Config.Base
    | 1 -> Fetch.Config.Tailored
    | _ -> Fetch.Config.Compressed
  in
  { cfg; model; scheme; att; trace }

let print_scenario sc =
  let c = sc.cfg in
  Printf.sprintf
    "line_bits=%d bus_bits=%d ways=%d sets=%d l0_ops=%d atb=%d gshare=%b \
     prefetch=%b model=%s blocks=%d image=%dB trace=[%s]"
    c.Fetch.Config.line_bits c.Fetch.Config.bus_bits c.Fetch.Config.ways
    (Fetch.Config.num_sets c) c.Fetch.Config.l0_ops c.Fetch.Config.atb_entries
    (c.Fetch.Config.predictor <> Fetch.Config.Two_bit)
    c.Fetch.Config.prefetch_next
    (match sc.model with
    | Fetch.Config.Base -> "base"
    | Fetch.Config.Tailored -> "tailored"
    | Fetch.Config.Compressed -> "compressed")
    (Array.length sc.att.Encoding.Att.entries)
    (String.length sc.scheme.Encoding.Scheme.image)
    (String.concat ";" (Array.to_list (Array.map string_of_int sc.trace)))

let prop_reference_random =
  QCheck.Test.make ~name:"random configs, layouts and traces = reference"
    ~count:500
    (QCheck.make ~print:print_scenario gen_scenario)
    (fun { cfg; model; scheme; att; trace } ->
      let iter f = Array.iter f trace in
      check_same "random scenario"
        (recorded (fun obs -> R.run_iter ~obs ~model ~cfg ~scheme ~att iter))
        (recorded (fun obs ->
             Fetch.Sim.run_iter ~obs ~model ~cfg ~scheme ~att iter));
      true)

(* Fault plans built the way [Cccs.Faults] builds them: eight upsets
   scheduled into the lines of recently visited blocks, or a ROM image
   with four flipped cells, on fir and compress, bare and CRC-8 framed.
   The results and event streams must match the reference, and the
   campaign must reach detection, correction, silent corruption and
   machine checks somewhere. *)
let test_reference_fault_plans () =
  let module Rng = Cccs.Faults.Rng in
  let totals = Array.make 4 0 in
  List.iter
    (fun bench ->
      let r = Cccs.Workload_run.load (Option.get (Workloads.Suite.find bench)) in
      let s = Cccs.Experiments.schemes_of r in
      let prog = r.Cccs.Workload_run.compiled.Cccs.Pipeline.program in
      let trace = r.Cccs.Workload_run.exec.Emulator.Exec.trace in
      let reference b = Tepic.Program.block_ops (Tepic.Program.block prog b) in
      List.iter
        (fun (name, sc, model, cfg) ->
          List.iter
            (fun protection ->
              let sc = Encoding.Scheme.protect protection sc in
              let att =
                Encoding.Att.build sc ~line_bits:cfg.Fetch.Config.line_bits prog
              in
              let rng = Rng.create (Rng.mix 11 name) in
              let n = Emulator.Trace.length trace in
              let offs = sc.Encoding.Scheme.block_offset_bits in
              let sizes = sc.Encoding.Scheme.block_bits in
              let upsets =
                let evs = ref [] in
                for _ = 1 to 8 do
                  let v = 1 + Rng.int rng (n - 1) in
                  let b = Emulator.Trace.get trace (v - 1) in
                  if sizes.(b) > 0 then
                    evs := (v, offs.(b) + Rng.int rng sizes.(b)) :: !evs
                done;
                let a = Array.of_list !evs in
                Array.sort (fun (a, _) (b, _) -> compare a b) a;
                a
              in
              let image = sc.Encoding.Scheme.image in
              let rom =
                Bits.flip_bits image
                  (List.init 4 (fun _ -> Rng.int rng (8 * String.length image)))
              in
              List.iter
                (fun (label, rom_image, line_events) ->
                  let faults =
                    {
                      Fetch.Sim.rom_image;
                      line_events;
                      decode_check =
                        (fun img b ->
                          Encoding.Scheme.decode_block_checked ~image:img sc b);
                      reference;
                      max_retries = 2;
                    }
                  in
                  let got =
                    recorded (fun obs ->
                        Fetch.Sim.run ~faults ~obs ~model ~cfg ~scheme:sc ~att
                          trace)
                  in
                  let res = Result.get_ok (fst got) in
                  check_same
                    (Printf.sprintf "%s %s %s %s" bench name
                       (Encoding.Scheme.protection_name protection) label)
                    (recorded (fun obs ->
                         R.run ~faults ~obs ~model ~cfg ~scheme:sc ~att trace))
                    got;
                  totals.(0) <- totals.(0) + res.Fetch.Sim.faults_detected;
                  totals.(1) <- totals.(1) + res.Fetch.Sim.faults_corrected;
                  totals.(2) <- totals.(2) + res.Fetch.Sim.silent_corruptions;
                  totals.(3) <- totals.(3) + res.Fetch.Sim.machine_checks)
                [ ("upsets", image, upsets); ("rom", rom, [||]) ])
            [ Encoding.Scheme.Unprotected; Encoding.Scheme.Crc8 ])
        [
          ("base", s.Cccs.Experiments.base, Fetch.Config.Base,
           Fetch.Config.default_base);
          ("full", s.Cccs.Experiments.full, Fetch.Config.Compressed,
           Fetch.Config.default);
          ("tailored", s.Cccs.Experiments.tailored, Fetch.Config.Tailored,
           Fetch.Config.default);
        ])
    [ "fir"; "compress" ];
  List.iteri
    (fun i what ->
      Alcotest.(check bool) ("campaign reached " ^ what) true (totals.(i) > 0))
    [ "detection"; "correction"; "silent corruption"; "machine checks" ]

(* The word-wise beat read against the bit loop it replaced, at every
   bit offset and width, up to and past the end of the image. *)
let test_bus_read_bits () =
  let rng = Random.State.make [| 0xb05 |] in
  let image = String.init 24 (fun _ -> Char.chr (Random.State.int rng 256)) in
  let ones = String.make 24 '\xff' in
  List.iter
    (fun image ->
      let old = R.Bus.create Fetch.Config.default ~image in
      for byte = 0 to 26 do
        for off = 0 to 7 do
          let pos = (8 * byte) + off in
          for width = 1 to 62 do
            check
              (Printf.sprintf "pos=%d width=%d" pos width)
              (R.Bus.read_bits old ~pos ~width)
              (Fetch.Bus.read_bits image ~pos ~width)
          done
        done
      done)
    [ image; ones ]

(* A replay without a sink allocates nothing per visit: replaying the
   trace twice through one [run_iter] allocates the same minor-heap words
   as replaying it once (the state set-up and the result), for each model
   of Figure 13. *)
let test_replay_allocates_nothing_per_visit () =
  let r = Cccs.Workload_run.load (Option.get (Workloads.Suite.find "compress")) in
  let s = Cccs.Experiments.schemes_of r in
  let prog = r.Cccs.Workload_run.compiled.Cccs.Pipeline.program in
  let trace = r.Cccs.Workload_run.exec.Emulator.Exec.trace in
  List.iter
    (fun (name, scheme) ->
      let model, cfg = Fetch.Config.of_scheme name in
      let att = Encoding.Att.build scheme ~line_bits:cfg.Fetch.Config.line_bits prog in
      let words passes =
        let before = Gc.minor_words () in
        let res =
          Fetch.Sim.run_iter ~model ~cfg ~scheme ~att (fun f ->
              for _ = 1 to passes do
                Emulator.Trace.iter f trace
              done)
        in
        let words = int_of_float (Gc.minor_words () -. before) in
        check (name ^ " visits") (passes * Emulator.Trace.length trace)
          res.Fetch.Sim.block_visits;
        words
      in
      let once = words 1 in
      check (name ^ ": minor words, two passes = one") once (words 2))
    [
      ("base", s.Cccs.Experiments.base);
      ("full", s.Cccs.Experiments.full);
      ("tailored", s.Cccs.Experiments.tailored);
    ]

let suite =
  [
    Alcotest.test_case "Table 1 penalties, verbatim" `Quick test_table1_exact;
    Alcotest.test_case "Table 1 penalties, exhaustive" `Quick
      test_table1_exhaustive;
    Alcotest.test_case "cache geometry" `Quick test_config_geometry;
    Alcotest.test_case "line cache basics" `Quick test_line_cache_basics;
    Alcotest.test_case "restricted placement" `Quick
      test_line_cache_restricted_placement;
    Alcotest.test_case "line cache LRU" `Quick test_line_cache_lru;
    Alcotest.test_case "ATB hit/miss" `Quick test_atb_hit_miss;
    Alcotest.test_case "ATB capacity and LRU" `Quick test_atb_capacity;
    Alcotest.test_case "2-bit predictor learns" `Quick test_predictor_learns_loop;
    Alcotest.test_case "L0 buffer" `Quick test_l0_buffer;
    Alcotest.test_case "bus flip counting" `Quick test_bus_flips;
    Alcotest.test_case "bus zero image" `Quick test_bus_zero_image;
    Alcotest.test_case "ideal simulator" `Quick test_ideal_ipc;
    Alcotest.test_case "simulator bounds" `Quick test_sim_bounds;
    Alcotest.test_case "compressed model uses L0" `Quick
      test_sim_compressed_uses_buffer;
    Alcotest.test_case "simulation deterministic" `Quick test_sim_deterministic;
    Alcotest.test_case "DSP kernel lives in L0 (paper §4)" `Quick
      test_kernel_fits_l0;
    Alcotest.test_case "bus beat read = bit loop" `Quick test_bus_read_bits;
    Alcotest.test_case "13 workloads, 4 models = reference" `Quick
      test_reference_workloads;
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| 0xfe7c |])
      prop_reference_random;
    Alcotest.test_case "fault plans = reference" `Quick
      test_reference_fault_plans;
    Alcotest.test_case "gshare: last block predicts inside the layout" `Quick
      test_gshare_last_block;
    Alcotest.test_case "uninstrumented replay allocates nothing per visit"
      `Quick test_replay_allocates_nothing_per_visit;
  ]
