type result = {
  model : string;
  cycles : int;
  ops_delivered : int;
  mops_delivered : int;
  block_visits : int;
  ipc : float;
  l1_hits : int;
  l1_misses : int;
  l0_hits : int;
  l0_misses : int;
  mispredicts : int;
  atb_misses : int;
  lines_fetched : int;
  bus_flips : int;
  bus_beats : int;
  faults_injected : int;
  faults_detected : int;
  faults_corrected : int;
  silent_corruptions : int;
  machine_checks : int;
  recovery_cycles : int;
}

type fault_plan = {
  rom_image : string;
  line_events : (int * int) array;
  decode_check :
    string ->
    int ->
    (Tepic.Op.t list, Encoding.Scheme.decode_error) Stdlib.result;
  reference : int -> Tepic.Op.t list;
  max_retries : int;
}

let model_name = function
  | Config.Base -> "base"
  | Config.Tailored -> "tailored"
  | Config.Compressed -> "compressed"

let zero =
  {
    model = "";
    cycles = 0;
    ops_delivered = 0;
    mops_delivered = 0;
    block_visits = 0;
    ipc = 0.;
    l1_hits = 0;
    l1_misses = 0;
    l0_hits = 0;
    l0_misses = 0;
    mispredicts = 0;
    atb_misses = 0;
    lines_fetched = 0;
    bus_flips = 0;
    bus_beats = 0;
    faults_injected = 0;
    faults_detected = 0;
    faults_corrected = 0;
    silent_corruptions = 0;
    machine_checks = 0;
    recovery_cycles = 0;
  }

let ipc ~ops ~cycles =
  if cycles = 0 then 0. else float_of_int ops /. float_of_int cycles

(* What a checked decode of a delivered block reports. *)
type outcome = Clean | Silent | Detected

let run_iter ?faults ?obs ~model ~cfg ~scheme ~(att : Encoding.Att.t)
    iter_blocks =
  let num_blocks = Array.length att.Encoding.Att.entries in
  let cache = Line_cache.create cfg in
  let atb = Atb.create cfg ~num_blocks in
  let l0 = L0_buffer.create cfg ~num_blocks in
  let bus = Bus.create cfg ~image:scheme.Encoding.Scheme.image in
  (* The layout is static: every block's line span is computed once. *)
  let spans =
    Array.map2
      (fun offset_bits size_bits -> Config.line_span cfg ~offset_bits ~size_bits)
      scheme.Encoding.Scheme.block_offset_bits scheme.Encoding.Scheme.block_bits
  in
  let compressed = model = Config.Compressed in
  let cycles = ref 0 in
  let ops = ref 0 and mops = ref 0 in
  let l1_hits = ref 0 and l1_misses = ref 0 in
  let mispredicts = ref 0 in
  let lines_fetched = ref 0 in
  let prev = ref (-1) in
  let predicted_next = ref (-1) in
  (* Fault state: flips applied to resident lines but not yet overwritten by
     a refill, plus the blocks whose ROM bytes differ from the clean image. *)
  let injected = ref 0 and detected = ref 0 and corrected = ref 0 in
  let silent = ref 0 and traps = ref 0 and recovery = ref 0 in
  let line_flips : (int, int list) Hashtbl.t = Hashtbl.create 16 in
  let visit = ref 0 and ev_i = ref 0 in
  (* Every event of the stream goes through [emit], and every call sits
     under [if tracing], so a run without a sink builds no event value.
     The sink never feeds back: results are bit-identical with and
     without one. *)
  let tracing = Option.is_some obs in
  let emit block ev =
    match obs with
    | Some s ->
        Cccs_obs.Sink.emit s
          (Cccs_obs.Event.Fetch { cycle = !cycles; visit = !visit; block; ev })
    | None -> ()
  in
  let rom_dirty =
    match faults with
    | None -> [||]
    | Some f ->
        if String.equal f.rom_image scheme.Encoding.Scheme.image then [||]
        else
          Array.mapi
            (fun i off ->
              let sz = scheme.Encoding.Scheme.block_bits.(i) in
              let b0 = off / 8 and b1 = (off + Int.max 1 sz - 1) / 8 in
              let len =
                Int.min (String.length f.rom_image)
                  (String.length scheme.Encoding.Scheme.image)
              in
              let rec differs k =
                k <= b1
                && (k >= len
                   || f.rom_image.[k] <> scheme.Encoding.Scheme.image.[k]
                   || differs (k + 1))
              in
              differs b0)
            scheme.Encoding.Scheme.block_offset_bits
  in
  (* The ROM image, the decoder and the reference are fixed for the run,
     so a delivery's outcome depends only on the block and the upsets on
     it: each (block, sorted flips) is decoded once.  A refetch from ROM
     is the key (block, []). *)
  let outcomes : (int * int list, outcome) Hashtbl.t = Hashtbl.create 16 in
  let outcome f b flips =
    let key = (b, flips) in
    match Hashtbl.find_opt outcomes key with
    | Some o -> o
    | None ->
        let img =
          if flips = [] then f.rom_image else Bits.flip_bits f.rom_image flips
        in
        let o =
          match f.decode_check img b with
          | Ok ops when Tepic.Op.equal_list ops (f.reference b) -> Clean
          | Ok _ -> Silent
          | Error _ -> Detected
        in
        Hashtbl.add outcomes key o;
        o
  in
  let silent_delivery b =
    incr silent;
    if tracing then emit b (Cccs_obs.Event.Fault_silent { surface = "cache" })
  in
  let line_beats =
    (cfg.Config.line_bits + cfg.Config.bus_bits - 1) / cfg.Config.bus_bits
  in
  let entry_beats =
    (Int.max 0 att.Encoding.Att.entry_bits + cfg.Config.bus_bits - 1)
    / cfg.Config.bus_bits
  in
  (* Memory traffic for block [blk]'s span: the lines missing before the
     touch cross the bus, and a refill overwrites any upset in them. *)
  let fill blk ~first ~last =
    for line = first to last do
      if not (Line_cache.line_resident cache line) then begin
        let flips = Bus.fetch_line bus line in
        Hashtbl.remove line_flips line;
        if tracing then
          emit blk (Cccs_obs.Event.Bus_beat { beats = line_beats; flips })
      end
    done;
    lines_fetched := !lines_fetched + Line_cache.touch_block cache ~first ~last
  in
  iter_blocks
    (fun b ->
      let e = att.Encoding.Att.entries.(b) in
      let first, last = spans.(b) in
      (* 0. Deliver this visit's scheduled upsets.  An upset only lands when
         its line is resident — bits in empty frames have no storage cell to
         flip — so the applied count can trail the schedule. *)
      (match faults with
      | Some f ->
          while
            !ev_i < Array.length f.line_events
            && fst f.line_events.(!ev_i) <= !visit
          do
            let _, bit = f.line_events.(!ev_i) in
            incr ev_i;
            let line = bit / cfg.Config.line_bits in
            if Line_cache.line_resident cache line then begin
              incr injected;
              if tracing then emit b (Cccs_obs.Event.Fault_inject { bit });
              let prior =
                Option.value ~default:[] (Hashtbl.find_opt line_flips line)
              in
              Hashtbl.replace line_flips line (bit :: prior)
            end
          done
      | None -> ());
      (* 1. Resolve the previous block's prediction and train it. *)
      let predicted =
        if !prev < 0 then true
        else begin
          let ok = !predicted_next = b in
          if not ok then begin
            incr mispredicts;
            if tracing then emit b Cccs_obs.Event.Mispredict
          end;
          Atb.update atb !prev ~next:b;
          ok
        end
      in
      (* 2. ATB lookup for the new block. *)
      if not (Atb.lookup atb b) then begin
        cycles := !cycles + cfg.Config.atb_miss_penalty;
        let flips = Bus.fetch_extra_bits bus att.Encoding.Att.entry_bits in
        if tracing then begin
          emit b
            (Cccs_obs.Event.Atb_miss { penalty = cfg.Config.atb_miss_penalty });
          emit b (Cccs_obs.Event.Bus_beat { beats = entry_beats; flips })
        end
      end;
      (* 3. Cache and buffer state.  L0 has priority: on a buffer hit the
         L1 is not consulted. *)
      let buffer_hit = compressed && L0_buffer.hit l0 b in
      let cache_hit = buffer_hit || Line_cache.refresh cache ~first ~last in
      if not buffer_hit then begin
        if cache_hit then incr l1_hits else incr l1_misses;
        if tracing then
          emit b
            (if cache_hit then Cccs_obs.Event.L1_hit
             else
               let lines = ref 0 in
               for l = first to last do
                 if not (Line_cache.line_resident cache l) then incr lines
               done;
               Cccs_obs.Event.L1_miss { lines = !lines });
        if not cache_hit then fill b ~first ~last;
        if compressed then begin
          L0_buffer.insert l0 b ~ops:e.Encoding.Att.ops;
          if tracing then
            emit b (Cccs_obs.Event.L0_fill { ops = e.Encoding.Att.ops })
        end
      end
      else if tracing then emit b Cccs_obs.Event.L0_hit;
      (* 3b. Fault delivery check.  The L0 buffer holds already-decompressed
         MOPs, so a buffer hit bypasses both fault surfaces; every other
         delivery re-reads cached code bits and runs the checked decoder
         when the block's backing bits may be corrupt. *)
      (match faults with
      | Some f when not buffer_hit ->
          let offset_bits = scheme.Encoding.Scheme.block_offset_bits.(b) in
          let size_bits = scheme.Encoding.Scheme.block_bits.(b) in
          let flips = ref [] in
          if Hashtbl.length line_flips > 0 then
            for l = first to last do
              match Hashtbl.find_opt line_flips l with
              | Some bits ->
                  List.iter
                    (fun k ->
                      if k >= offset_bits && k < offset_bits + size_bits then
                        flips := k :: !flips)
                    bits
              | None -> ()
            done;
          let dirty =
            !flips <> [] || (Array.length rom_dirty > 0 && rom_dirty.(b))
          in
          if dirty then begin
            match outcome f b (List.sort compare !flips) with
            | Clean -> ()
            | Silent -> silent_delivery b
            | Detected ->
                incr detected;
                if tracing then
                  emit b (Cccs_obs.Event.Fault_detect { surface = "cache" });
                (* Recovery: invalidate the block's lines and refetch from
                   ROM at the full miss penalty; after [max_retries] failed
                   attempts, raise a machine check and deliver nothing. *)
                let rec retry k =
                  for line = first to last do
                    Hashtbl.remove line_flips line;
                    ignore (Bus.fetch_line bus line)
                  done;
                  lines_fetched := !lines_fetched + (last - first + 1);
                  let pen =
                    Config.penalty model ~predicted:false ~cache_hit:false
                      ~buffer_hit:false ~lines:e.Encoding.Att.lines
                  in
                  recovery := !recovery + pen;
                  cycles := !cycles + pen;
                  if tracing then
                    emit b (Cccs_obs.Event.Fault_recover { cycles = pen });
                  match outcome f b [] with
                  | Clean -> incr corrected
                  | Silent -> silent_delivery b
                  | Detected ->
                      if k + 1 < f.max_retries then retry (k + 1)
                      else begin
                        incr traps;
                        if tracing then emit b Cccs_obs.Event.Machine_check
                      end
                in
                retry 0
          end
      | _ -> ());
      (* 4. Cycle accounting: Table 1 initiation plus MOP streaming. *)
      let pen =
        Config.penalty model ~predicted ~cache_hit ~buffer_hit
          ~lines:e.Encoding.Att.lines
      in
      if tracing then begin
        (* Stamped at delivery start so the slice covers the stall. *)
        if pen > 1 then
          emit b (Cccs_obs.Event.Decode_stall { cycles = pen - 1 });
        emit b
          (Cccs_obs.Event.Deliver
             { penalty = pen; ops = e.Encoding.Att.ops;
               mops = e.Encoding.Att.mops })
      end;
      cycles := !cycles + pen + (e.Encoding.Att.mops - 1);
      ops := !ops + e.Encoding.Att.ops;
      mops := !mops + e.Encoding.Att.mops;
      (* 5. Predict the next block from this block's entry; optionally
         prefetch its lines in the shadow of the streaming cycles. *)
      predicted_next := Atb.predict atb b;
      if cfg.Config.prefetch_next && !predicted_next >= 0 then begin
        let p = !predicted_next in
        let first, last = spans.(p) in
        fill p ~first ~last
      end;
      prev := b;
      incr visit);
  {
    model = model_name model;
    cycles = !cycles;
    ops_delivered = !ops;
    mops_delivered = !mops;
    block_visits = !visit;
    ipc = ipc ~ops:!ops ~cycles:!cycles;
    l1_hits = !l1_hits;
    l1_misses = !l1_misses;
    l0_hits = L0_buffer.hits l0;
    l0_misses = L0_buffer.misses l0;
    mispredicts = !mispredicts;
    atb_misses = Atb.misses atb;
    lines_fetched = !lines_fetched;
    bus_flips = Bus.total_flips bus;
    bus_beats = Bus.total_beats bus;
    faults_injected = !injected;
    faults_detected = !detected;
    faults_corrected = !corrected;
    silent_corruptions = !silent;
    machine_checks = !traps;
    recovery_cycles = !recovery;
  }

let run_ideal ?obs ~(att : Encoding.Att.t) trace =
  let cycles = ref 0 and ops = ref 0 and mops = ref 0 in
  let visit = ref 0 in
  Emulator.Trace.iter
    (fun b ->
      let e = att.Encoding.Att.entries.(b) in
      (match obs with
      | Some s ->
          Cccs_obs.Sink.emit s
            (Cccs_obs.Event.Fetch
               { cycle = !cycles; visit = !visit; block = b;
                 ev =
                   Cccs_obs.Event.Deliver
                     { penalty = 1; ops = e.Encoding.Att.ops;
                       mops = e.Encoding.Att.mops } })
      | None -> ());
      cycles := !cycles + e.Encoding.Att.mops;
      ops := !ops + e.Encoding.Att.ops;
      mops := !mops + e.Encoding.Att.mops;
      incr visit)
    trace;
  {
    zero with
    model = "ideal";
    cycles = !cycles;
    ops_delivered = !ops;
    mops_delivered = !mops;
    block_visits = !visit;
    ipc = ipc ~ops:!ops ~cycles:!cycles;
  }

let run ?faults ?obs ~model ~cfg ~scheme ~att trace =
  run_iter ?faults ?obs ~model ~cfg ~scheme ~att (fun f ->
      Emulator.Trace.iter f trace)

(* Full-record CSV: the one machine-readable path shared by the figure
   exports and the fault campaigns (`cccs export`, section "sim"). *)
let csv_header =
  "model,cycles,ops_delivered,mops_delivered,block_visits,ipc,l1_hits,\
   l1_misses,l0_hits,l0_misses,mispredicts,atb_misses,lines_fetched,\
   bus_flips,bus_beats,faults_injected,faults_detected,faults_corrected,\
   silent_corruptions,machine_checks,recovery_cycles"

let csv_row r =
  Printf.sprintf "%s,%d,%d,%d,%d,%.6f,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d"
    r.model r.cycles r.ops_delivered r.mops_delivered r.block_visits r.ipc
    r.l1_hits r.l1_misses r.l0_hits r.l0_misses r.mispredicts r.atb_misses
    r.lines_fetched r.bus_flips r.bus_beats r.faults_injected r.faults_detected
    r.faults_corrected r.silent_corruptions r.machine_checks r.recovery_cycles

let pp ppf r =
  Format.fprintf ppf
    "%-10s ipc=%.3f cycles=%d ops=%d l1=%d/%d l0=%d/%d mispred=%d flips=%d"
    r.model r.ipc r.cycles r.ops_delivered r.l1_hits r.l1_misses r.l0_hits
    r.l0_misses r.mispredicts r.bus_flips;
  if r.faults_injected > 0 || r.faults_detected > 0 then
    Format.fprintf ppf " faults=%d det=%d corr=%d sdc=%d mc=%d rec=%d"
      r.faults_injected r.faults_detected r.faults_corrected
      r.silent_corruptions r.machine_checks r.recovery_cycles
