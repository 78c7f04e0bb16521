(* Soft-error fault-injection campaigns over the three storage surfaces a
   compressed-code ROM system exposes: the ROM image itself, resident
   ICache lines during a run, and the Huffman decode tables.  Every
   campaign is driven by a hand-rolled deterministic generator so results
   are bit-identical across OCaml releases (stdlib [Random] changed
   algorithms between 4.x and 5.x). *)

module Rng = struct
  type t = { mutable s : int64 }

  let create seed =
    let s = Int64.of_int seed in
    { s = (if Int64.equal s 0L then 0x9E3779B97F4A7C15L else s) }

  (* xorshift64 — fixed algorithm, platform-independent. *)
  let next t =
    let x = t.s in
    let x = Int64.logxor x (Int64.shift_left x 13) in
    let x = Int64.logxor x (Int64.shift_right_logical x 7) in
    let x = Int64.logxor x (Int64.shift_left x 17) in
    t.s <- x;
    x

  let int t bound =
    if bound <= 0 then invalid_arg "Faults.Rng.int: bound must be positive";
    Int64.to_int (Int64.rem (Int64.logand (next t) Int64.max_int)
                    (Int64.of_int bound))

  (* Decorrelate a base seed by a label.  Must never return 0: [create]
     maps 0 to a fixed constant, so two labels whose mixes both landed on
     0 would collapse onto the same stream. *)
  let mix base label =
    let h = ref base in
    String.iter (fun c -> h := (!h * 131) + Char.code c) label;
    if !h = 0 then 1 else !h
end

type counts = {
  injected : int;
  detected : int;
  corrected : int;
  silent : int;
  benign : int;
  machine_checks : int;
  recovery_cycles : int;
}

let zero_counts =
  {
    injected = 0;
    detected = 0;
    corrected = 0;
    silent = 0;
    benign = 0;
    machine_checks = 0;
    recovery_cycles = 0;
  }

let coverage c =
  let exposed = c.detected + c.silent in
  if exposed = 0 then 1.0 else float_of_int c.detected /. float_of_int exposed

type scheme_report = {
  scheme : string;
  protection : Encoding.Scheme.protection;
  ratio : float;
  protection_overhead : float;
  rom : counts;
  table : counts;
  cache : counts;
  clean_cycles : int;
  faulty_cycles : int;
}

type spec = {
  bench : string;
  seed : int;
  flips : int;
  retries : int;
  protection : Encoding.Scheme.protection;
}

type t = { spec : spec; rows : scheme_report list }

(* Last block whose frame covers absolute image bit [k]; [None] for bits in
   the inter-block byte padding. *)
let block_of_bit offsets sizes k =
  let n = Array.length offsets in
  let lo = ref 0 and hi = ref (n - 1) and found = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if offsets.(mid) <= k then begin
      found := mid;
      lo := mid + 1
    end
    else hi := mid - 1
  done;
  if !found >= 0 && k < offsets.(!found) + sizes.(!found) then Some !found
  else None

(* ------------------------------------------------------------------ *)
(* ROM surface: one independent single-bit flip per trial, classified by
   the checked decoder of the block the bit lands in. *)

let rom_campaign ?obs rng ~flips (sc : Encoding.Scheme.t) reference =
  let nbits = 8 * String.length sc.Encoding.Scheme.image in
  let detected = ref 0 and silent = ref 0 and benign = ref 0 in
  (* Campaign streams use the trial index as the visit stamp and cycle 0:
     ROM trials have no timeline position. *)
  let emit_ev trial block ev =
    match obs with
    | Some s ->
        Cccs_obs.Sink.emit s
          (Cccs_obs.Event.Fetch { cycle = 0; visit = trial; block; ev = ev () })
    | None -> ()
  in
  for trial = 1 to flips do
    let k = Rng.int rng nbits in
    match
      block_of_bit sc.Encoding.Scheme.block_offset_bits
        sc.Encoding.Scheme.block_bits k
    with
    | None ->
        incr benign;
        emit_ev trial (-1) (fun () ->
            Cccs_obs.Event.Fault_benign { surface = "rom" })
    | Some b -> (
        emit_ev trial b (fun () -> Cccs_obs.Event.Fault_inject { bit = k });
        let img = Bits.flip_bits sc.Encoding.Scheme.image [ k ] in
        match Encoding.Scheme.decode_block_checked ~image:img sc b with
        | Error _ ->
            incr detected;
            emit_ev trial b (fun () ->
                Cccs_obs.Event.Fault_detect { surface = "rom" })
        | Ok ops when Tepic.Op.equal_list ops (reference b) ->
            incr benign;
            emit_ev trial b (fun () ->
                Cccs_obs.Event.Fault_benign { surface = "rom" })
        | Ok _ ->
            incr silent;
            emit_ev trial b (fun () ->
                Cccs_obs.Event.Fault_silent { surface = "rom" }))
  done;
  { zero_counts with injected = flips; detected = !detected; silent = !silent;
    benign = !benign }

(* ------------------------------------------------------------------ *)
(* Decode-table surface.  Each codebook's canonical table is modelled as
   ROM rows of [length | symbol]; a flip lands in one field of one row.
   Unprotected, the only detector is the table-rebuild validity check
   (Kraft violation, zero length, duplicate symbol); a surviving rebuild
   with different contents misdecodes silently.  Protected, a CRC guard
   word over the serialized table catches every single-bit flip. *)

let table_rows book =
  let canon = Huffman.Codebook.canonical book in
  let rows =
    List.map (fun (sym, _, len) -> (sym, len)) (Huffman.Canonical.to_list canon)
  in
  let max_len = Huffman.Canonical.max_length canon in
  let lw = max 1 (Bits.bits_needed (max_len + 1)) in
  let sw =
    max 1 (List.fold_left (fun a (s, _) -> max a (Bits.bits_needed (s + 1))) 1 rows)
  in
  (Array.of_list rows, lw, sw)

let serialize_rows rows lw sw =
  let w = Bits.Writer.create () in
  Array.iter
    (fun (sym, len) ->
      Bits.Writer.add_bits w ~width:lw len;
      Bits.Writer.add_bits w ~width:sw sym)
    rows;
  Bits.Writer.contents w

let table_flip_unprotected rng book =
  let rows, lw, sw = table_rows book in
  let row_bits = lw + sw in
  let k = Rng.int rng (row_bits * Array.length rows) in
  let i = k / row_bits and off = k mod row_bits in
  let sym, len = rows.(i) in
  let sym', len' =
    if off < lw then (sym, len lxor (1 lsl (lw - 1 - off)))
    else (sym lxor (1 lsl (sw - 1 - (off - lw))), len)
  in
  let rows' = Array.copy rows in
  rows'.(i) <- (sym', len');
  match Huffman.Canonical.of_lengths (Array.to_list rows') with
  | exception _ -> `Detected
  | _ -> `Silent

let table_flip_protected rng ~guard_bits ~poly book =
  let rows, lw, sw = table_rows book in
  let image = serialize_rows rows lw sw in
  let guard = Bits.Crc.of_string ~width:guard_bits ~poly image in
  let data_bits = 8 * String.length image in
  let k = Rng.int rng (data_bits + guard_bits) in
  if k < data_bits then
    let image' = Bits.flip_bits image [ k ] in
    if Bits.Crc.of_string ~width:guard_bits ~poly image' <> guard then
      `Detected
    else `Silent
  else
    (* The guard word itself was hit: stored and recomputed CRC differ. *)
    let guard' = guard lxor (1 lsl (guard_bits - 1 - (k - data_bits))) in
    if guard' <> guard then `Detected else `Silent

let table_campaign ?obs rng ~flips ~(protection : Encoding.Scheme.protection)
    (sc : Encoding.Scheme.t) =
  let books = List.map snd sc.Encoding.Scheme.books in
  if books = [] then zero_counts
  else begin
    let books = Array.of_list books in
    let detected = ref 0 and silent = ref 0 in
    let emit_ev trial ev =
      match obs with
      | Some s ->
          Cccs_obs.Sink.emit s
            (Cccs_obs.Event.Fetch
               { cycle = 0; visit = trial; block = -1; ev = ev () })
      | None -> ()
    in
    for trial = 1 to flips do
      let book = books.(Rng.int rng (Array.length books)) in
      let verdict =
        match protection with
        | Encoding.Scheme.Unprotected -> table_flip_unprotected rng book
        | p ->
            table_flip_protected rng
              ~guard_bits:(Encoding.Scheme.guard_bits_of p)
              ~poly:(Encoding.Scheme.poly_of p)
              book
      in
      match verdict with
      | `Detected ->
          incr detected;
          emit_ev trial (fun () ->
              Cccs_obs.Event.Fault_detect { surface = "table" })
      | `Silent ->
          incr silent;
          emit_ev trial (fun () ->
              Cccs_obs.Event.Fault_silent { surface = "table" })
    done;
    { zero_counts with injected = flips; detected = !detected;
      silent = !silent }
  end

(* ------------------------------------------------------------------ *)
(* Cache surface: upsets scheduled into the lines of recently-visited
   blocks, delivered by the fetch simulator's recovery path. *)

let schedule_line_events rng ~flips (sc : Encoding.Scheme.t) trace =
  let n = Emulator.Trace.length trace in
  if n < 2 then [||]
  else begin
    let offs = sc.Encoding.Scheme.block_offset_bits in
    let sizes = sc.Encoding.Scheme.block_bits in
    let evs = ref [] in
    for _ = 1 to flips do
      let v = 1 + Rng.int rng (n - 1) in
      let b = Emulator.Trace.get trace (v - 1) in
      if sizes.(b) > 0 then
        evs := (v, offs.(b) + Rng.int rng sizes.(b)) :: !evs
    done;
    let arr = Array.of_list !evs in
    Array.sort (fun (a, _) (b, _) -> compare a b) arr;
    arr
  end

let cache_campaign ?obs rng ~flips ~retries (name, (sc : Encoding.Scheme.t))
    prog trace =
  let model, cfg = Fetch.Config.of_scheme name in
  let att = Encoding.Att.build sc ~line_bits:cfg.Fetch.Config.line_bits prog in
  let reference b = Tepic.Program.block_ops (Tepic.Program.block prog b) in
  let faults =
    {
      Fetch.Sim.rom_image = sc.Encoding.Scheme.image;
      line_events = schedule_line_events rng ~flips sc trace;
      decode_check =
        (fun img b -> Encoding.Scheme.decode_block_checked ~image:img sc b);
      reference;
      max_retries = retries;
    }
  in
  (* Only the faulty replay is observed; streaming the clean run too would
     double-count every fetch event in a campaign recorder. *)
  let clean = Fetch.Sim.run ~model ~cfg ~scheme:sc ~att trace in
  let faulty = Fetch.Sim.run ~faults ?obs ~model ~cfg ~scheme:sc ~att trace in
  let cache =
    {
      injected = faulty.Fetch.Sim.faults_injected;
      detected = faulty.Fetch.Sim.faults_detected;
      corrected = faulty.Fetch.Sim.faults_corrected;
      silent = faulty.Fetch.Sim.silent_corruptions;
      benign = 0;
      machine_checks = faulty.Fetch.Sim.machine_checks;
      recovery_cycles = faulty.Fetch.Sim.recovery_cycles;
    }
  in
  (cache, clean.Fetch.Sim.cycles, faulty.Fetch.Sim.cycles)

(* ------------------------------------------------------------------ *)

(* Per-scheme seeds must be decorrelated but reproducible: mix the scheme
   name into the campaign seed. *)
let scheme_seed = Rng.mix

(* The campaign scheme set by name only: parallel workers look the actual
   scheme values up in their own domain-local Experiments memo, so a
   lazily-built decode table is never shared across domains. *)
let campaign_names =
  [ "base"; "byte" ]
  @ List.filter
      (fun n -> n = "stream" || n = "stream_1")
      (List.map fst Encoding.Stream_huffman.configs)
  @ [ "full"; "tailored" ]

let scheme_by_name (s : Experiments.schemes) name =
  match name with
  | "base" -> s.Experiments.base
  | "byte" -> s.Experiments.byte
  | "full" -> s.Experiments.full
  | "tailored" -> s.Experiments.tailored
  | n -> List.assoc n s.Experiments.streams

let run ?obs ?jobs spec =
  let entry =
    match Workloads.Suite.find spec.bench with
    | Some e -> e
    | None -> failwith (Printf.sprintf "Faults.run: unknown bench %S" spec.bench)
  in
  (* Each row derives everything it needs inside its own domain (the
     workload and scheme memos are domain-local), and each row has its own
     decorrelated RNG stream, so the report is identical at any job
     count.  A shared sink cannot take concurrent emitters: obs forces the
     rows sequential. *)
  let row name =
    let r = Workload_run.load entry in
    let s = Experiments.schemes_of r in
    let prog = r.Workload_run.compiled.Pipeline.program in
    let trace = r.Workload_run.exec.Emulator.Exec.trace in
    let baseline_bits = s.Experiments.base.Encoding.Scheme.code_bits in
    let reference b = Tepic.Program.block_ops (Tepic.Program.block prog b) in
    let sc = scheme_by_name s name in
    let rng = Rng.create (scheme_seed spec.seed name) in
    let sc_p = Encoding.Scheme.protect spec.protection sc in
    Cccs_obs.Sink.timed ?obs ~stage:Cccs_obs.Event.Simulate
      ~label:("faults:" ^ name)
    @@ fun () ->
    let rom = rom_campaign ?obs rng ~flips:spec.flips sc_p reference in
    let table =
      table_campaign ?obs rng ~flips:spec.flips ~protection:spec.protection
        sc_p
    in
    let cache, clean_cycles, faulty_cycles =
      cache_campaign ?obs rng ~flips:spec.flips ~retries:spec.retries
        (name, sc_p) prog trace
    in
    {
      scheme = name;
      protection = spec.protection;
      ratio = Encoding.Scheme.ratio sc_p ~baseline_bits;
      protection_overhead =
        float_of_int
          (sc_p.Encoding.Scheme.code_bits - sc.Encoding.Scheme.code_bits)
        /. float_of_int sc.Encoding.Scheme.code_bits;
      rom;
      table;
      cache;
      clean_cycles;
      faulty_cycles;
    }
  in
  let jobs = match obs with Some _ -> Some 1 | None -> jobs in
  { spec; rows = Parallel.map ?jobs row campaign_names }

let silent_total row =
  row.rom.silent + row.table.silent + row.cache.silent
