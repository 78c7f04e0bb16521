(* Decompress-at-miss penalties: the hit path is the banked baseline (1
   cycle, 2 on mispredict); the miss path fetches n compressed lines and
   runs them through the decompressor, costing two extra cycles over the
   baseline miss (decode rate = fill rate, pipelined). *)
let penalty ~predicted ~cache_hit ~lines =
  let n = Int.max 1 lines in
  match (predicted, cache_hit) with
  | true, true -> 1
  | true, false -> 3 + (n - 1)
  | false, true -> 2
  | false, false -> 10 + (n - 1)

let run ~cfg ~base_scheme ~comp_scheme ~(comp_att : Encoding.Att.t) trace =
  let num_blocks = Array.length comp_att.Encoding.Att.entries in
  let cache = Line_cache.create cfg in
  let atb = Atb.create cfg ~num_blocks in
  let bus = Bus.create cfg ~image:comp_scheme.Encoding.Scheme.image in
  let spans (sc : Encoding.Scheme.t) =
    Array.map2
      (fun offset_bits size_bits -> Config.line_span cfg ~offset_bits ~size_bits)
      sc.Encoding.Scheme.block_offset_bits sc.Encoding.Scheme.block_bits
  in
  (* The cache stores decompressed ops, so it is indexed by the baseline
     layout; memory sees the compressed lines of each block. *)
  let base_spans = spans base_scheme and comp_spans = spans comp_scheme in
  let cycles = ref 0 in
  let ops = ref 0 and mops = ref 0 in
  let l1_hits = ref 0 and l1_misses = ref 0 in
  let mispredicts = ref 0 in
  let lines_fetched = ref 0 in
  let prev = ref (-1) in
  let predicted_next = ref (-1) in
  Emulator.Trace.iter
    (fun b ->
      let e = comp_att.Encoding.Att.entries.(b) in
      let first, last = base_spans.(b) in
      let predicted =
        if !prev < 0 then true
        else begin
          let ok = !predicted_next = b in
          if not ok then incr mispredicts;
          Atb.update atb !prev ~next:b;
          ok
        end
      in
      let atb_hit = Atb.lookup atb b in
      if not atb_hit then begin
        cycles := !cycles + cfg.Config.atb_miss_penalty;
        ignore (Bus.fetch_extra_bits bus comp_att.Encoding.Att.entry_bits)
      end;
      let cache_hit = Line_cache.refresh cache ~first ~last in
      if cache_hit then incr l1_hits
      else begin
        incr l1_misses;
        let comp_first, comp_last = comp_spans.(b) in
        for line = comp_first to comp_last do
          ignore (Bus.fetch_line bus line)
        done;
        lines_fetched := !lines_fetched + (comp_last - comp_first + 1);
        ignore (Line_cache.touch_block cache ~first ~last)
      end;
      let pen =
        penalty ~predicted ~cache_hit ~lines:e.Encoding.Att.lines
      in
      cycles := !cycles + pen + (e.Encoding.Att.mops - 1);
      ops := !ops + e.Encoding.Att.ops;
      mops := !mops + e.Encoding.Att.mops;
      predicted_next := Atb.predict atb b;
      prev := b)
    trace;
  {
    Sim.zero with
    model = "codepack";
    cycles = !cycles;
    ops_delivered = !ops;
    mops_delivered = !mops;
    block_visits = Emulator.Trace.length trace;
    ipc = Sim.ipc ~ops:!ops ~cycles:!cycles;
    l1_hits = !l1_hits;
    l1_misses = !l1_misses;
    mispredicts = !mispredicts;
    atb_misses = Atb.misses atb;
    lines_fetched = !lines_fetched;
    bus_flips = Bus.total_flips bus;
    bus_beats = Bus.total_beats bus;
  }
