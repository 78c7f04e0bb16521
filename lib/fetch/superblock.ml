type t = {
  head_of : int array;
  next_in_unit : int array;  (* -1 when the unit ends *)
}

(* [b] can fall through into [b+1]: its terminator leaves the sequential
   path reachable. *)
let falls_through program b =
  match Tepic.Program.terminator (Tepic.Program.block program b) with
  | None -> true
  | Some op -> (
      match Tepic.Op.opcode op with
      | Tepic.Opcode.BRCT | Tepic.Opcode.BRCF | Tepic.Opcode.BRLC -> true
      | Tepic.Opcode.BR | Tepic.Opcode.RET | Tepic.Opcode.BRL -> false
      | _ -> false)

let form program =
  let n = Tepic.Program.num_blocks program in
  let pred_count = Array.make n 0 in
  for b = 0 to n - 1 do
    List.iter
      (fun s -> pred_count.(s) <- pred_count.(s) + 1)
      (Tepic.Program.successors program b)
  done;
  let head_of = Array.init n Fun.id in
  let next_in_unit = Array.make n (-1) in
  for b = 0 to n - 2 do
    let succ = b + 1 in
    if
      falls_through program b
      && pred_count.(succ) = 1
      && List.mem succ (Tepic.Program.successors program b)
      && succ <> program.Tepic.Program.entry
    then begin
      next_in_unit.(b) <- succ;
      head_of.(succ) <- head_of.(b)
    end
  done;
  { head_of; next_in_unit }

let head t b =
  if b < 0 || b >= Array.length t.head_of then invalid_arg "Superblock.head";
  t.head_of.(b)

let unit_blocks t h =
  if h < 0 || h >= Array.length t.head_of || t.head_of.(h) <> h then
    invalid_arg "Superblock.unit_blocks: not a head";
  let rec go b acc =
    let acc = b :: acc in
    if t.next_in_unit.(b) >= 0 then go t.next_in_unit.(b) acc else List.rev acc
  in
  go h []

let stats t =
  let n = Array.length t.head_of in
  let units = ref 0 in
  for b = 0 to n - 1 do
    if t.head_of.(b) = b then incr units
  done;
  (!units, if !units = 0 then 0. else float_of_int n /. float_of_int !units)

(* Whole-unit footprint in the scheme's address space: blocks of a unit
   are laid out contiguously (ids are layout order), so the span runs from
   the head's offset to the last block's end. *)
let unit_span (scheme : Encoding.Scheme.t) t h =
  let blocks = unit_blocks t h in
  let last = List.nth blocks (List.length blocks - 1) in
  let offset = scheme.Encoding.Scheme.block_offset_bits.(h) in
  let stop =
    scheme.Encoding.Scheme.block_offset_bits.(last)
    + scheme.Encoding.Scheme.block_bits.(last)
  in
  (offset, Int.max 1 (stop - offset))

let run ~model ~cfg ~scheme ~(att : Encoding.Att.t) t trace =
  let cache = Line_cache.create cfg in
  let n_blocks = Array.length t.head_of in
  let atb = Atb.create cfg ~num_blocks:n_blocks in
  let l0 = L0_buffer.create cfg ~num_blocks:n_blocks in
  let bus = Bus.create cfg ~image:scheme.Encoding.Scheme.image in
  (* Per unit head, computed once: the unit's line span, its line count
     and its ops. *)
  let units =
    Array.init n_blocks (fun h ->
        if t.head_of.(h) <> h then (0, -1, 0, 0)
        else
          let offset_bits, size_bits = unit_span scheme t h in
          let first, last = Config.line_span cfg ~offset_bits ~size_bits in
          let ops =
            List.fold_left
              (fun a b -> a + att.Encoding.Att.entries.(b).Encoding.Att.ops)
              0 (unit_blocks t h)
          in
          (first, last, Config.lines_of_bits cfg size_bits, ops))
  in
  let compressed = model = Config.Compressed in
  let cycles = ref 0 in
  let ops = ref 0 and mops = ref 0 in
  let l1_hits = ref 0 and l1_misses = ref 0 in
  let mispredicts = ref 0 in
  let lines_fetched = ref 0 in
  let unit_visits = ref 0 in
  let prev_exit = ref (-1) in
  let predicted_next = ref (-1) in
  (* Walk the block trace, grouping runs that follow unit order. *)
  let len = Emulator.Trace.length trace in
  let i = ref 0 in
  while !i < len do
    let h = Emulator.Trace.get trace !i in
    (* Consume the in-unit run. *)
    let consumed_ops = ref 0 and consumed_mops = ref 0 in
    let cursor = ref h in
    let continue = ref true in
    while !continue do
      let e = att.Encoding.Att.entries.(!cursor) in
      consumed_ops := !consumed_ops + e.Encoding.Att.ops;
      consumed_mops := !consumed_mops + e.Encoding.Att.mops;
      incr i;
      if
        !i < len
        && t.next_in_unit.(!cursor) >= 0
        && Emulator.Trace.get trace !i = t.next_in_unit.(!cursor)
      then cursor := t.next_in_unit.(!cursor)
      else continue := false
    done;
    incr unit_visits;
    let unit_head = t.head_of.(h) in
    (* Control can only enter a unit at its head (no side entrances). *)
    assert (unit_head = h);
    let first, last, unit_lines, unit_ops = units.(h) in
    let predicted =
      if !prev_exit < 0 then true
      else begin
        (* The previous unit's side- or end-exit block resolves where
           control went; its entry carries the predictor state. *)
        let ok = !predicted_next = h in
        if not ok then incr mispredicts;
        Atb.update atb !prev_exit ~next:h;
        ok
      end
    in
    let atb_hit = Atb.lookup atb h in
    if not atb_hit then begin
      cycles := !cycles + cfg.Config.atb_miss_penalty;
      ignore (Bus.fetch_extra_bits bus att.Encoding.Att.entry_bits)
    end;
    let buffer_hit = compressed && L0_buffer.hit l0 h in
    let cache_hit = buffer_hit || Line_cache.refresh cache ~first ~last in
    if not buffer_hit then begin
      if cache_hit then incr l1_hits
      else begin
        incr l1_misses;
        (* The lines missing before the touch cross the bus, as in [Sim]. *)
        for line = first to last do
          if not (Line_cache.line_resident cache line) then
            ignore (Bus.fetch_line bus line)
        done;
        lines_fetched :=
          !lines_fetched + Line_cache.touch_block cache ~first ~last
      end;
      if compressed then L0_buffer.insert l0 h ~ops:unit_ops
    end;
    let pen =
      Config.penalty model ~predicted ~cache_hit ~buffer_hit ~lines:unit_lines
    in
    cycles := !cycles + pen + (!consumed_mops - 1);
    ops := !ops + !consumed_ops;
    mops := !mops + !consumed_mops;
    (* The exit block's predictor entry produces the next-unit guess; make
       sure it is resident (it lives in the unit's ATB entry, so this
       lookup carries no extra latency). *)
    if !cursor <> h then ignore (Atb.lookup atb !cursor);
    predicted_next := Atb.predict atb !cursor;
    prev_exit := !cursor
  done;
  {
    Sim.zero with
    model = Sim.model_name model ^ "+sb";
    cycles = !cycles;
    ops_delivered = !ops;
    mops_delivered = !mops;
    block_visits = !unit_visits;
    ipc = Sim.ipc ~ops:!ops ~cycles:!cycles;
    l1_hits = !l1_hits;
    l1_misses = !l1_misses;
    l0_hits = L0_buffer.hits l0;
    l0_misses = L0_buffer.misses l0;
    mispredicts = !mispredicts;
    atb_misses = Atb.misses atb;
    lines_fetched = !lines_fetched;
    bus_flips = Bus.total_flips bus;
    bus_beats = Bus.total_beats bus;
  }
