(* The fetch models exactly as they stood before they moved onto dense
   arrays: the ATB and the L0 buffer on hash tables with a full-table LRU
   scan on every eviction, the line cache's option-returning way search
   and its [fetched_lines] list, the bus reading one bit per loop turn,
   and [Sim.run_iter] building a missing-line list per visit, with the
   ideal model beside them.  Kept verbatim (only [Bits.flips_between] is
   re-pointed at the bit-loop popcount kept below, the result and
   fault-plan types are re-exported from [Fetch.Sim], and a new ATB entry
   installs the fall-through clamped to the layout, as the production ATB
   does) as the reference oracle the fetch suite compares the production
   simulator against. *)

module Config = Fetch.Config

module Bits = struct
  include Bits

  (* [Bits.popcount] before it became a word-parallel sum; defined after
     the [include] so that [flips_between] below uses it. *)
  let popcount v =
    if v < 0 then invalid_arg "Bits.popcount: negative";
    let rec go v acc = if v = 0 then acc else go (v lsr 1) (acc + (v land 1)) in
    go v 0

  let flips_between a b = popcount (a lxor b)
end

module Atb = struct
  type entry = {
    block : int;
    mutable counter : int;  (* 2-bit saturating: 0-1 not taken, 2-3 taken *)
    mutable last_target : int;
    mutable age : int;
  }

  (* Optional gshare direction predictor (the paper's "more elaborate branch
     prediction" future work): a global history register XOR-indexes a
     pattern history table of 2-bit counters.  Targets still come from each
     ATB entry's last-target register. *)
  type gshare = {
    history_bits : int;
    mutable history : int;
    pht : int array;
  }

  type t = {
    capacity : int;
    table : (int, entry) Hashtbl.t;
    (* The ATT in ROM is static, so prediction state is lost when an entry
       is evicted, exactly like a tag-indexed BTB.  We model that. *)
    num_blocks : int;
    gshare : gshare option;
    mutable clock : int;
    mutable hits : int;
    mutable misses : int;
  }

  let create cfg ~num_blocks =
    let gshare =
      match cfg.Config.predictor with
      | Config.Two_bit -> None
      | Config.Gshare bits ->
          if bits < 2 || bits > 14 then invalid_arg "Atb.create: history bits";
          Some
            { history_bits = bits; history = 0; pht = Array.make (1 lsl bits) 1 }
    in
    {
      capacity = cfg.Config.atb_entries;
      table = Hashtbl.create 97;
      num_blocks;
      gshare;
      clock = 0;
      hits = 0;
      misses = 0;
    }

  let evict_lru t =
    let victim = ref None in
    Hashtbl.iter
      (fun _ e ->
        match !victim with
        | Some v when v.age <= e.age -> ()
        | _ -> victim := Some e)
      t.table;
    match !victim with
    | Some v -> Hashtbl.remove t.table v.block
    | None -> ()

  let lookup t block =
    t.clock <- t.clock + 1;
    match Hashtbl.find_opt t.table block with
    | Some e ->
        e.age <- t.clock;
        t.hits <- t.hits + 1;
        true
    | None ->
        t.misses <- t.misses + 1;
        if Hashtbl.length t.table >= t.capacity then evict_lru t;
        Hashtbl.replace t.table block
          {
            block;
            counter = 1;
            last_target = min (block + 1) (t.num_blocks - 1);
            age = t.clock;
          };
        false

  let gshare_index g block = (block lxor g.history) land ((1 lsl g.history_bits) - 1)

  let predicts_taken t block =
    match t.gshare with
    | Some g -> g.pht.(gshare_index g block) >= 2
    | None -> (
        match Hashtbl.find_opt t.table block with
        | Some e -> e.counter >= 2
        | None -> false)

  let predict t block =
    let fall = min (block + 1) (t.num_blocks - 1) in
    if predicts_taken t block then
      match Hashtbl.find_opt t.table block with
      | Some e -> e.last_target
      | None -> fall
    else fall

  let update t block ~next =
    let taken = next <> block + 1 in
    (match t.gshare with
    | Some g ->
        let i = gshare_index g block in
        g.pht.(i) <-
          (if taken then min 3 (g.pht.(i) + 1) else max 0 (g.pht.(i) - 1));
        g.history <-
          ((g.history lsl 1) lor (if taken then 1 else 0))
          land ((1 lsl g.history_bits) - 1)
    | None -> ());
    match Hashtbl.find_opt t.table block with
    | Some e ->
        if taken then begin
          e.counter <- min 3 (e.counter + 1);
          e.last_target <- next
        end
        else e.counter <- max 0 (e.counter - 1)
    | None -> ()

  let hits t = t.hits
  let misses t = t.misses

  let reset t =
    Hashtbl.reset t.table;
    (match t.gshare with
    | Some g ->
        g.history <- 0;
        Array.fill g.pht 0 (Array.length g.pht) 1
    | None -> ());
    t.clock <- 0;
    t.hits <- 0;
    t.misses <- 0
end

module L0_buffer = struct
  type t = {
    capacity_ops : int;
    entries : (int, int * int ref) Hashtbl.t;  (* block -> (ops, age) *)
    mutable used_ops : int;
    mutable clock : int;
    mutable hits : int;
    mutable misses : int;
  }

  let create cfg =
    {
      capacity_ops = cfg.Config.l0_ops;
      entries = Hashtbl.create 17;
      used_ops = 0;
      clock = 0;
      hits = 0;
      misses = 0;
    }

  let hit t block =
    t.clock <- t.clock + 1;
    match Hashtbl.find_opt t.entries block with
    | Some (_, age) ->
        age := t.clock;
        t.hits <- t.hits + 1;
        true
    | None ->
        t.misses <- t.misses + 1;
        false

  let evict_lru t =
    let victim = ref None in
    Hashtbl.iter
      (fun b (ops, age) ->
        match !victim with
        | Some (_, _, a) when a <= !age -> ()
        | _ -> victim := Some (b, ops, !age))
      t.entries;
    match !victim with
    | Some (b, ops, _) ->
        Hashtbl.remove t.entries b;
        t.used_ops <- t.used_ops - ops
    | None -> ()

  let insert t block ~ops =
    if ops <= t.capacity_ops && not (Hashtbl.mem t.entries block) then begin
      while t.used_ops + ops > t.capacity_ops do
        evict_lru t
      done;
      t.clock <- t.clock + 1;
      Hashtbl.replace t.entries block (ops, ref t.clock);
      t.used_ops <- t.used_ops + ops
    end

  let hits t = t.hits
  let misses t = t.misses

  let reset t =
    Hashtbl.reset t.entries;
    t.used_ops <- 0;
    t.clock <- 0;
    t.hits <- 0;
    t.misses <- 0
end

module Line_cache = struct
  type t = {
    cfg : Config.t;
    sets : int;
    (* tags.(set).(way) = line number or -1; lru.(set).(way) = age stamp *)
    tags : int array array;
    lru : int array array;
    mutable clock : int;
  }

  let create cfg =
    let sets = Config.num_sets cfg in
    {
      cfg;
      sets;
      tags = Array.init sets (fun _ -> Array.make cfg.Config.ways (-1));
      lru = Array.init sets (fun _ -> Array.make cfg.Config.ways 0);
      clock = 0;
    }

  let lines_of_block t ~offset_bits ~size_bits =
    Config.line_span t.cfg ~offset_bits ~size_bits

  let set_of t line = line mod t.sets

  let find_way t set line =
    let ways = t.tags.(set) in
    let rec go i =
      if i >= Array.length ways then None
      else if ways.(i) = line then Some i
      else go (i + 1)
    in
    go 0

  let line_resident t line = find_way t (set_of t line) line <> None

  let block_resident t ~offset_bits ~size_bits =
    let first, last = lines_of_block t ~offset_bits ~size_bits in
    let rec go l = l > last || (line_resident t l && go (l + 1)) in
    go first

  let touch_line t line =
    t.clock <- t.clock + 1;
    let set = set_of t line in
    match find_way t set line with
    | Some w ->
        t.lru.(set).(w) <- t.clock;
        false
    | None ->
        (* Evict LRU way. *)
        let victim = ref 0 in
        Array.iteri
          (fun w age -> if age < t.lru.(set).(!victim) then victim := w)
          t.lru.(set);
        (* Prefer an empty way. *)
        Array.iteri (fun w tag -> if tag = -1 then victim := w) t.tags.(set);
        t.tags.(set).(!victim) <- line;
        t.lru.(set).(!victim) <- t.clock;
        true

  let touch_block t ~offset_bits ~size_bits =
    let first, last = lines_of_block t ~offset_bits ~size_bits in
    let fetched = ref 0 in
    for l = first to last do
      if touch_line t l then incr fetched
    done;
    !fetched

  let fetched_lines t ~offset_bits ~size_bits =
    let first, last = lines_of_block t ~offset_bits ~size_bits in
    let acc = ref [] in
    for l = last downto first do
      if not (line_resident t l) then acc := l :: !acc
    done;
    !acc

  let reset t =
    Array.iter (fun ways -> Array.fill ways 0 (Array.length ways) (-1)) t.tags;
    Array.iter (fun ages -> Array.fill ages 0 (Array.length ages) 0) t.lru;
    t.clock <- 0
end

module Bus = struct
  type t = {
    cfg : Config.t;
    image : string;
    mutable last_word : int;
    mutable flips : int;
    mutable beats : int;
  }

  let create cfg ~image = { cfg; image; last_word = 0; flips = 0; beats = 0 }

  (* Read [width] bits starting at absolute bit [pos] in the image,
     zero-padded past the end. *)
  let read_bits t ~pos ~width =
    let v = ref 0 in
    for i = pos to pos + width - 1 do
      let byte = i / 8 and off = i mod 8 in
      let bit =
        if byte < String.length t.image then
          (Char.code t.image.[byte] lsr (7 - off)) land 1
        else 0
      in
      v := (!v lsl 1) lor bit
    done;
    !v

  let drive t word =
    let f = Bits.flips_between t.last_word word in
    t.last_word <- word;
    t.flips <- t.flips + f;
    t.beats <- t.beats + 1;
    f

  let fetch_line t line =
    let lb = t.cfg.Config.line_bits and bw = t.cfg.Config.bus_bits in
    let beats = (lb + bw - 1) / bw in
    let start = line * lb in
    let total = ref 0 in
    for b = 0 to beats - 1 do
      let pos = start + (b * bw) in
      let width = min bw (lb - (b * bw)) in
      total := !total + drive t (read_bits t ~pos ~width)
    done;
    !total

  let fetch_extra_bits t bits =
    let bw = t.cfg.Config.bus_bits in
    let beats = (max 0 bits + bw - 1) / bw in
    let total = ref 0 in
    for _ = 1 to beats do
      (* ATT traffic content is not modelled bit-exactly; charge a half-width
         toggle as the expected transition cost of random table data. *)
      total := !total + drive t (t.last_word lxor ((1 lsl (bw / 2)) - 1))
    done;
    !total

  let total_flips t = t.flips
  let total_beats t = t.beats

  let reset t =
    t.last_word <- 0;
    t.flips <- 0;
    t.beats <- 0
end

type result = Fetch.Sim.result = {
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


type fault_plan = Fetch.Sim.fault_plan = {
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

let ops_equal a b =
  try List.for_all2 Tepic.Op.equal a b with Invalid_argument _ -> false

(* Instrumentation sites below all follow the same shape:

     match obs with Some s -> Sink.emit s (Event.Fetch {...}) | None -> ()

   so that the event value is only ever constructed when a sink is
   installed — a plain run allocates nothing and the results are
   bit-identical with and without [?obs] (the sink never feeds back). *)
let run_iter ?faults ?obs ~model ~cfg ~scheme ~(att : Encoding.Att.t)
    iter_blocks =
  let cache = Line_cache.create cfg in
  let atb = Atb.create cfg ~num_blocks:(Array.length att.Encoding.Att.entries) in
  let l0 = L0_buffer.create cfg in
  let bus = Bus.create cfg ~image:scheme.Encoding.Scheme.image in
  let compressed = model = Config.Compressed in
  let cycles = ref 0 in
  let ops = ref 0 and mops = ref 0 in
  let l1_hits = ref 0 and l1_misses = ref 0 in
  let mispredicts = ref 0 in
  let lines_fetched = ref 0 in
  let prev = ref None in
  let predicted_next = ref (-1) in
  (* Fault state: flips applied to resident lines but not yet overwritten by
     a refill, plus the blocks whose ROM bytes differ from the clean image. *)
  let injected = ref 0 and detected = ref 0 and corrected = ref 0 in
  let silent = ref 0 and traps = ref 0 and recovery = ref 0 in
  let line_flips : (int, int list) Hashtbl.t = Hashtbl.create 16 in
  let visit = ref 0 and ev_i = ref 0 in
  let rom_dirty =
    match faults with
    | None -> [||]
    | Some f ->
        if String.equal f.rom_image scheme.Encoding.Scheme.image then [||]
        else
          Array.mapi
            (fun i off ->
              let sz = scheme.Encoding.Scheme.block_bits.(i) in
              let b0 = off / 8 and b1 = (off + max 1 sz - 1) / 8 in
              let len =
                min (String.length f.rom_image)
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
  let forget_flips lines = List.iter (Hashtbl.remove line_flips) lines in
  let line_beats =
    (cfg.Config.line_bits + cfg.Config.bus_bits - 1) / cfg.Config.bus_bits
  in
  iter_blocks
    (fun b ->
      let e = att.Encoding.Att.entries.(b) in
      let offset_bits = scheme.Encoding.Scheme.block_offset_bits.(b) in
      let size_bits = scheme.Encoding.Scheme.block_bits.(b) in
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
              (match obs with
              | Some s ->
                  Cccs_obs.Sink.emit s
                    (Cccs_obs.Event.Fetch
                       { cycle = !cycles; visit = !visit; block = b;
                         ev = Cccs_obs.Event.Fault_inject { bit } })
              | None -> ());
              let prior =
                Option.value ~default:[] (Hashtbl.find_opt line_flips line)
              in
              Hashtbl.replace line_flips line (bit :: prior)
            end
          done
      | None -> ());
      (* 1. Resolve the previous block's prediction and train it. *)
      let predicted =
        match !prev with
        | None -> true
        | Some p ->
            let ok = !predicted_next = b in
            if not ok then begin
              incr mispredicts;
              match obs with
              | Some s ->
                  Cccs_obs.Sink.emit s
                    (Cccs_obs.Event.Fetch
                       { cycle = !cycles; visit = !visit; block = b;
                         ev = Cccs_obs.Event.Mispredict })
              | None -> ()
            end;
            Atb.update atb p ~next:b;
            ok
      in
      (* 2. ATB lookup for the new block. *)
      let atb_hit = Atb.lookup atb b in
      if not atb_hit then begin
        cycles := !cycles + cfg.Config.atb_miss_penalty;
        let flips = Bus.fetch_extra_bits bus att.Encoding.Att.entry_bits in
        match obs with
        | Some s ->
            let bw = cfg.Config.bus_bits in
            let beats = (max 0 att.Encoding.Att.entry_bits + bw - 1) / bw in
            Cccs_obs.Sink.emit s
              (Cccs_obs.Event.Fetch
                 { cycle = !cycles; visit = !visit; block = b;
                   ev =
                     Cccs_obs.Event.Atb_miss
                       { penalty = cfg.Config.atb_miss_penalty } });
            Cccs_obs.Sink.emit s
              (Cccs_obs.Event.Fetch
                 { cycle = !cycles; visit = !visit; block = b;
                   ev = Cccs_obs.Event.Bus_beat { beats; flips } })
        | None -> ignore flips
      end;
      (* 3. Cache and buffer state. *)
      let buffer_hit = compressed && L0_buffer.hit l0 b in
      let cache_hit =
        if compressed && buffer_hit then
          (* L0 has priority; L1 is not consulted. *)
          true
        else Line_cache.block_resident cache ~offset_bits ~size_bits
      in
      if not buffer_hit then begin
        if cache_hit then incr l1_hits else incr l1_misses;
        (* Memory traffic for the missing lines, then fill.  A refill
           overwrites any pending upset in those lines. *)
        let missing = Line_cache.fetched_lines cache ~offset_bits ~size_bits in
        (match obs with
        | Some s ->
            Cccs_obs.Sink.emit s
              (Cccs_obs.Event.Fetch
                 { cycle = !cycles; visit = !visit; block = b;
                   ev =
                     (if cache_hit then Cccs_obs.Event.L1_hit
                      else
                        Cccs_obs.Event.L1_miss
                          { lines = List.length missing }) })
        | None -> ());
        List.iter
          (fun line ->
            let flips = Bus.fetch_line bus line in
            match obs with
            | Some s ->
                Cccs_obs.Sink.emit s
                  (Cccs_obs.Event.Fetch
                     { cycle = !cycles; visit = !visit; block = b;
                       ev = Cccs_obs.Event.Bus_beat { beats = line_beats; flips } })
            | None -> ignore flips)
          missing;
        forget_flips missing;
        lines_fetched :=
          !lines_fetched + Line_cache.touch_block cache ~offset_bits ~size_bits;
        if compressed then begin
          L0_buffer.insert l0 b ~ops:e.Encoding.Att.ops;
          match obs with
          | Some s ->
              Cccs_obs.Sink.emit s
                (Cccs_obs.Event.Fetch
                   { cycle = !cycles; visit = !visit; block = b;
                     ev = Cccs_obs.Event.L0_fill { ops = e.Encoding.Att.ops } })
          | None -> ()
        end
      end
      else
        (match obs with
        | Some s ->
            Cccs_obs.Sink.emit s
              (Cccs_obs.Event.Fetch
                 { cycle = !cycles; visit = !visit; block = b;
                   ev = Cccs_obs.Event.L0_hit })
        | None -> ());
      (* 3b. Fault delivery check.  The L0 buffer holds already-decompressed
         MOPs, so a buffer hit bypasses both fault surfaces; every other
         delivery re-reads cached code bits and runs the checked decoder
         when the block's backing bits may be corrupt. *)
      (match faults with
      | Some f when not buffer_hit ->
          let first, last =
            Line_cache.lines_of_block cache ~offset_bits ~size_bits
          in
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
            let img =
              if !flips = [] then f.rom_image
              else Bits.flip_bits f.rom_image !flips
            in
            (* [emit_fault] receives a closed constructor function so the
               event is only built under the [Some] branch. *)
            let emit_fault mk =
              match obs with
              | Some s ->
                  Cccs_obs.Sink.emit s
                    (Cccs_obs.Event.Fetch
                       { cycle = !cycles; visit = !visit; block = b;
                         ev = mk () })
              | None -> ()
            in
            match f.decode_check img b with
            | Ok ops when ops_equal ops (f.reference b) -> ()
            | Ok _ ->
                incr silent;
                emit_fault (fun () ->
                    Cccs_obs.Event.Fault_silent { surface = "cache" })
            | Error _ ->
                incr detected;
                emit_fault (fun () ->
                    Cccs_obs.Event.Fault_detect { surface = "cache" });
                (* Recovery: invalidate the block's lines and refetch from
                   ROM at the full miss penalty; after [max_retries] failed
                   attempts, raise a machine check and deliver nothing. *)
                let all_lines =
                  List.init (last - first + 1) (fun i -> first + i)
                in
                let rec retry k =
                  forget_flips all_lines;
                  List.iter
                    (fun line -> ignore (Bus.fetch_line bus line))
                    all_lines;
                  lines_fetched := !lines_fetched + List.length all_lines;
                  let pen =
                    Config.penalty model ~predicted:false ~cache_hit:false
                      ~buffer_hit:false ~lines:e.Encoding.Att.lines
                  in
                  recovery := !recovery + pen;
                  cycles := !cycles + pen;
                  (match obs with
                  | Some s ->
                      Cccs_obs.Sink.emit s
                        (Cccs_obs.Event.Fetch
                           { cycle = !cycles; visit = !visit; block = b;
                             ev = Cccs_obs.Event.Fault_recover { cycles = pen } })
                  | None -> ());
                  match f.decode_check f.rom_image b with
                  | Ok ops when ops_equal ops (f.reference b) -> incr corrected
                  | Ok _ ->
                      incr silent;
                      emit_fault (fun () ->
                          Cccs_obs.Event.Fault_silent { surface = "cache" })
                  | Error _ ->
                      if k + 1 < f.max_retries then retry (k + 1)
                      else begin
                        incr traps;
                        emit_fault (fun () -> Cccs_obs.Event.Machine_check)
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
      (match obs with
      | Some s ->
          (* Stamped at delivery start so the slice covers the stall. *)
          if pen > 1 then
            Cccs_obs.Sink.emit s
              (Cccs_obs.Event.Fetch
                 { cycle = !cycles; visit = !visit; block = b;
                   ev = Cccs_obs.Event.Decode_stall { cycles = pen - 1 } });
          Cccs_obs.Sink.emit s
            (Cccs_obs.Event.Fetch
               { cycle = !cycles; visit = !visit; block = b;
                 ev =
                   Cccs_obs.Event.Deliver
                     { penalty = pen; ops = e.Encoding.Att.ops;
                       mops = e.Encoding.Att.mops } })
      | None -> ());
      cycles := !cycles + pen + (e.Encoding.Att.mops - 1);
      ops := !ops + e.Encoding.Att.ops;
      mops := !mops + e.Encoding.Att.mops;
      (* 5. Predict the next block from this block's entry; optionally
         prefetch its lines in the shadow of the streaming cycles. *)
      predicted_next := Atb.predict atb b;
      if cfg.Config.prefetch_next && !predicted_next >= 0 then begin
        let p = !predicted_next in
        let p_off = scheme.Encoding.Scheme.block_offset_bits.(p) in
        let p_sz = scheme.Encoding.Scheme.block_bits.(p) in
        let missing =
          Line_cache.fetched_lines cache ~offset_bits:p_off ~size_bits:p_sz
        in
        List.iter
          (fun line ->
            let flips = Bus.fetch_line bus line in
            match obs with
            | Some s ->
                Cccs_obs.Sink.emit s
                  (Cccs_obs.Event.Fetch
                     { cycle = !cycles; visit = !visit; block = p;
                       ev = Cccs_obs.Event.Bus_beat { beats = line_beats; flips } })
            | None -> ignore flips)
          missing;
        forget_flips missing;
        lines_fetched :=
          !lines_fetched
          + Line_cache.touch_block cache ~offset_bits:p_off ~size_bits:p_sz
      end;
      prev := Some b;
      incr visit);
  {
    model = model_name model;
    cycles = !cycles;
    ops_delivered = !ops;
    mops_delivered = !mops;
    block_visits = !visit;
    ipc =
      (if !cycles = 0 then 0. else float_of_int !ops /. float_of_int !cycles);
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

let run_ideal_iter ?obs ~(att : Encoding.Att.t) iter_blocks =
  let cycles = ref 0 and ops = ref 0 and mops = ref 0 in
  let visit = ref 0 in
  iter_blocks
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
      incr visit);
  {
    model = "ideal";
    cycles = !cycles;
    ops_delivered = !ops;
    mops_delivered = !mops;
    block_visits = !visit;
    ipc =
      (if !cycles = 0 then 0. else float_of_int !ops /. float_of_int !cycles);
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

let run ?faults ?obs ~model ~cfg ~scheme ~att trace =
  run_iter ?faults ?obs ~model ~cfg ~scheme ~att (fun f ->
      Emulator.Trace.iter f trace)

let run_ideal ?obs ~att trace =
  run_ideal_iter ?obs ~att (fun f -> Emulator.Trace.iter f trace)

