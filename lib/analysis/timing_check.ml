(* Static WCET of the fetch path, checked against the simulator.

   [Cache_ai] classifies every block fetch; this module turns the
   classification into a cycle bound and then refuses to trust itself:
   whenever a trace is available the same trace is replayed through
   [Fetch.Sim] and any observation outside the static claims is a hard
   error (CCCS-E301..E303).  The bound charges, per visit:

     (ATB always-hit ? 0 : atb_miss_penalty)
     + Config.penalty model ~predicted:false
         ~cache_hit:(always-hit) ~buffer_hit:false ~lines:n
     + (mops - 1)                       (one MOP streams per cycle)

   with n the worst of the layout's real line span and the span of the
   certified worst-case block size (Certify's decode-model bound) at the
   block's actual offset — so a decoder that can legally consume more
   bits than the builder emitted still has its width effects covered.
   [predicted:false] and [buffer_hit:false] pick the dominating Table 1
   row for each hit class, so the static charge is per-visit sound
   whatever the predictor and L0 buffer do.

   Loop bounds come from the workload trace (exact per-block visit
   counts — the bound is then sound for that execution by construction
   of the charges) or, statically, from a declared default bound raised
   to the loop nesting depth (SCC peeling); a reachable cycle with
   neither is CCCS-E300. *)

module Ad = Abstract_decoder

type wcet = {
  scheme : string;
  model : Fetch.Config.model;
  bound : int;
  sim_cycles : int option;
  ratio : float option;  (* bound / simulated, when both are meaningful *)
  blocks : int;
  reachable : int;
  always_hit : int;
  always_miss : int;
  unclassified : int;
  atb_always_hit : int;
  charged_visits : int;
  trace_bounds : bool;  (* visit counts from the trace, not the default *)
}

(* ------------------------------------------------------------------ *)
(* Structural loop bounds: SCC peeling.                                *)

(* [loop_depths cfg ~entry] — nesting depth per reachable block (0 =
   straight-line) and whether any reachable cycle exists.  Nontrivial
   SCCs get depth d+1; their back edges (internal edges into the headers)
   are removed and the SCC re-analyzed one level deeper. *)
let loop_depths (cfg : Cfg_recover.t) ~entry =
  let n = cfg.Cfg_recover.nblocks in
  let depth = Array.make n 0 in
  let cyclic = ref false in
  let in_range v = v >= 0 && v < n in
  let rec peel nodes (edges : (int, int list) Hashtbl.t) d =
    let succs v = Option.value ~default:[] (Hashtbl.find_opt edges v) in
    (* Tarjan. *)
    let index = Hashtbl.create 97 and low = Hashtbl.create 97 in
    let onstack = Hashtbl.create 97 in
    let stack = ref [] and counter = ref 0 and comps = ref [] in
    let rec strong v =
      Hashtbl.replace index v !counter;
      Hashtbl.replace low v !counter;
      incr counter;
      stack := v :: !stack;
      Hashtbl.replace onstack v ();
      List.iter
        (fun w ->
          if not (Hashtbl.mem index w) then begin
            strong w;
            Hashtbl.replace low v
              (min (Hashtbl.find low v) (Hashtbl.find low w))
          end
          else if Hashtbl.mem onstack w then
            Hashtbl.replace low v
              (min (Hashtbl.find low v) (Hashtbl.find index w)))
        (succs v);
      if Hashtbl.find low v = Hashtbl.find index v then begin
        let rec pop acc =
          match !stack with
          | w :: rest ->
              stack := rest;
              Hashtbl.remove onstack w;
              if w = v then w :: acc else pop (w :: acc)
          | [] -> acc
        in
        comps := pop [] :: !comps
      end
    in
    List.iter (fun v -> if not (Hashtbl.mem index v) then strong v) nodes;
    List.iter
      (fun comp ->
        let nontrivial =
          match comp with [ v ] -> List.mem v (succs v) | _ -> true
        in
        if nontrivial then begin
          cyclic := true;
          let memb = Hashtbl.create 17 in
          List.iter (fun v -> Hashtbl.replace memb v ()) comp;
          List.iter (fun v -> depth.(v) <- d + 1) comp;
          (* Headers: entered from outside the SCC (or the CFG entry). *)
          let headers = Hashtbl.create 7 in
          List.iter
            (fun v ->
              if not (Hashtbl.mem memb v) then
                List.iter
                  (fun w ->
                    if Hashtbl.mem memb w then Hashtbl.replace headers w ())
                  (succs v))
            nodes;
          if Hashtbl.mem memb entry then Hashtbl.replace headers entry ();
          if Hashtbl.length headers = 0 then
            (* unreachable-from-outside SCC (cannot happen for reachable
               nodes, but keep peeling total): break it arbitrarily *)
            Hashtbl.replace headers (List.hd comp) ();
          let inner = Hashtbl.create 17 in
          List.iter
            (fun v ->
              let kept =
                List.filter
                  (fun w ->
                    Hashtbl.mem memb w && not (Hashtbl.mem headers w))
                  (succs v)
              in
              Hashtbl.replace inner v kept)
            comp;
          peel comp inner (d + 1)
        end)
      !comps
  in
  let nodes = ref [] in
  for v = n - 1 downto 0 do
    if cfg.Cfg_recover.reachable.(v) then nodes := v :: !nodes
  done;
  let edges = Hashtbl.create 97 in
  List.iter
    (fun v ->
      Hashtbl.replace edges v
        (List.filter
           (fun w -> in_range w && cfg.Cfg_recover.reachable.(w))
           cfg.Cfg_recover.succs.(v)))
    !nodes;
  peel !nodes edges 0;
  (depth, !cyclic)

(* bound^depth with a saturation guard so a pathological nest cannot wrap
   the visit count. *)
let ipow b e =
  let cap = 1 lsl 40 in
  let rec go acc e =
    if e <= 0 then acc else if acc >= cap then cap else go (acc * b) (e - 1)
  in
  if b <= 0 then 1 else go 1 e

(* ------------------------------------------------------------------ *)
(* The analysis proper.                                                *)

let analyze_scheme ~workload ~program ?tailored ?strategy ?trace
    ?default_loop_bound (sc : Encoding.Scheme.t) =
  let diags = ref [] in
  let scheme = sc.Encoding.Scheme.name in
  let emit ?block ~code msg =
    diags := Diag.make ~code ~loc:(Diag.loc ~scheme ?block workload) msg :: !diags
  in
  let model, fetch_cfg = Fetch.Config.of_scheme scheme in
  let compressed = model = Fetch.Config.Compressed in
  let nblocks = Tepic.Program.num_blocks program in
  let offsets = sc.Encoding.Scheme.block_offset_bits in
  let sizes = sc.Encoding.Scheme.block_bits in
  let entry = program.Tepic.Program.entry in
  (* Recover each block's ops from the image; a block the independent
     decoder rejects falls back to the program's own ops (the validate
     pass owns reporting decode failures — control flow must still be
     modeled to bound the program that actually runs). *)
  let strategy =
    match strategy with
    | Some s -> s
    | None -> Ad.strategy_of_scheme ?tailored ~program sc
  in
  let program_ops i =
    Tepic.Program.block_ops (Tepic.Program.block program i)
  in
  let recovered_ops =
    Array.init nblocks (fun i ->
        match strategy with
        | Error _ -> program_ops i
        | Ok strategy -> (
            let r = Bits.Reader.of_string sc.Encoding.Scheme.image in
            match
              Ad.decode_block strategy ~frame:sc.Encoding.Scheme.frame r
                ~index:i ~start:offsets.(i)
                ~op_count:
                  (Tepic.Program.block_num_ops (Tepic.Program.block program i))
            with
            | Ok b -> b.Ad.ops
            | Error _ -> program_ops i))
  in
  let cfg = Cfg_recover.recover ~entry recovered_ops in
  (* CCCS-E304: an edge out of the block range can only come from a bad
     encoded target; the analysis ignores the edge, so say so loudly. *)
  Array.iteri
    (fun i succs ->
      if cfg.Cfg_recover.reachable.(i) then
        List.iter
          (fun s ->
            if s < 0 || s >= nblocks then
              emit ~block:i ~code:"CCCS-E304"
                (Printf.sprintf
                   "recovered successor %d of block %d is outside the \
                    program's %d blocks"
                   s i nblocks))
          succs)
    cfg.Cfg_recover.succs;
  (* CCCS-E305: the executed trace must stay inside the recovered CFG,
     otherwise every must-fact propagated along CFG edges is suspect. *)
  (match trace with
  | None -> ()
  | Some tr ->
      let seen = Hashtbl.create 7 in
      let prev = ref (-1) in
      Emulator.Trace.iter
        (fun b ->
          (if !prev = -1 then begin
             if b <> entry then
               emit ~block:b ~code:"CCCS-E305"
                 (Printf.sprintf
                    "trace starts at block %d but the program's entry is %d"
                    b entry)
           end
           else
             let p = !prev in
             if
               (not (List.mem b cfg.Cfg_recover.succs.(p)))
               && not (Hashtbl.mem seen (p, b))
             then begin
               Hashtbl.replace seen (p, b) ();
               emit ~block:p ~code:"CCCS-E305"
                 (Printf.sprintf
                    "trace edge %d -> %d is not in the recovered CFG" p b)
             end);
          prev := b)
        tr);
  let ai =
    Cache_ai.analyze ~cfg ~fetch_cfg ~compressed ~offsets ~sizes ~entry
  in
  (* Per-visit worst-case charge. *)
  let overhead_bits =
    sc.Encoding.Scheme.frame.Encoding.Scheme.len_bits
    + sc.Encoding.Scheme.frame.Encoding.Scheme.guard_bits
  in
  let worst_op_bits = fst (Certify.resolve_model sc) in
  let span_count ~offset_bits ~size_bits =
    let first, last = Fetch.Config.line_span fetch_cfg ~offset_bits ~size_bits in
    last - first + 1
  in
  let charge i =
    let layout_lines =
      span_count ~offset_bits:offsets.(i) ~size_bits:sizes.(i)
    in
    let cert_lines =
      match worst_op_bits with
      | None -> layout_lines
      | Some w ->
          let ops =
            Tepic.Program.block_num_ops (Tepic.Program.block program i)
          in
          span_count ~offset_bits:offsets.(i)
            ~size_bits:((ops * w) + overhead_bits)
    in
    let n = max layout_lines cert_lines in
    let cls = ai.Cache_ai.classes.(i) in
    let atb_cycles =
      match cls.Cache_ai.atb with
      | Cache_ai.Always_hit -> 0
      | Cache_ai.Always_miss | Cache_ai.Unclassified ->
          fetch_cfg.Fetch.Config.atb_miss_penalty
    in
    let mops = Tepic.Program.block_num_mops (Tepic.Program.block program i) in
    atb_cycles
    + Fetch.Config.penalty model ~predicted:false
        ~cache_hit:(cls.Cache_ai.cache = Cache_ai.Always_hit)
        ~buffer_hit:false ~lines:n
    + (mops - 1)
  in
  (* Visit counts: exact from the trace, else the declared default bound
     raised to the nesting depth. *)
  let visits =
    match trace with
    | Some tr -> Some (Emulator.Trace.visits tr ~num_blocks:nblocks)
    | None -> (
        let depth, cyclic = loop_depths cfg ~entry in
        match (cyclic, default_loop_bound) with
        | true, None ->
            emit ~code:"CCCS-E300"
              "recovered CFG has a reachable cycle and no loop bound \
               (no trace, no declared default)";
            None
        | _, bound ->
            let b = Option.value ~default:1 bound in
            Some
              (Array.init nblocks (fun i ->
                   if cfg.Cfg_recover.reachable.(i) then ipow b depth.(i)
                   else 0)))
  in
  match visits with
  | None -> (List.rev !diags, None)
  | Some visits ->
      let bound = ref 0 and charged = ref 0 in
      for i = 0 to nblocks - 1 do
        if visits.(i) > 0 then begin
          bound := !bound + (visits.(i) * charge i);
          charged := !charged + visits.(i)
        end
      done;
      let bound = !bound in
      (* Classification census over reachable blocks. *)
      let reach = ref 0 and ah = ref 0 and am = ref 0 and uc = ref 0 in
      let atb_ah = ref 0 in
      Array.iteri
        (fun i (c : Cache_ai.block_class) ->
          if ai.Cache_ai.reachable.(i) then begin
            incr reach;
            (match c.Cache_ai.cache with
            | Cache_ai.Always_hit -> incr ah
            | Cache_ai.Always_miss -> incr am
            | Cache_ai.Unclassified -> incr uc);
            if c.Cache_ai.atb = Cache_ai.Always_hit then incr atb_ah
          end)
        ai.Cache_ai.classes;
      if !reach >= 8 && !uc * 10 > !reach * 9 then
        emit ~code:"CCCS-W306"
          (Printf.sprintf
             "%d of %d reachable blocks are unclassified: the WCET bound \
              is dominated by worst-case misses"
             !uc !reach);
      (* Soundness replay: the same trace through the real simulator must
         stay inside every static claim. *)
      let sim_cycles =
        match trace with
        | None -> None
        | Some tr ->
            let l1_hit = Array.make nblocks 0
            and l1_miss = Array.make nblocks 0
            and l0_hit = Array.make nblocks 0
            and atb_miss = Array.make nblocks 0 in
            let sink =
              Cccs_obs.Sink.make (fun ev ->
                  match ev with
                  | Cccs_obs.Event.Fetch { block; ev; _ }
                    when block >= 0 && block < nblocks -> (
                      match ev with
                      | Cccs_obs.Event.L1_hit ->
                          l1_hit.(block) <- l1_hit.(block) + 1
                      | Cccs_obs.Event.L1_miss _ ->
                          l1_miss.(block) <- l1_miss.(block) + 1
                      | Cccs_obs.Event.L0_hit ->
                          l0_hit.(block) <- l0_hit.(block) + 1
                      | Cccs_obs.Event.Atb_miss _ ->
                          atb_miss.(block) <- atb_miss.(block) + 1
                      | _ -> ())
                  | _ -> ())
            in
            let att =
              Encoding.Att.build sc
                ~line_bits:fetch_cfg.Fetch.Config.line_bits program
            in
            let res =
              Fetch.Sim.run ~obs:sink ~model ~cfg:fetch_cfg ~scheme:sc ~att
                tr
            in
            if res.Fetch.Sim.cycles > bound then
              emit ~code:"CCCS-E301"
                (Printf.sprintf
                   "simulated %d cycles exceed the static bound %d"
                   res.Fetch.Sim.cycles bound);
            Array.iteri
              (fun i (c : Cache_ai.block_class) ->
                (match c.Cache_ai.cache with
                | Cache_ai.Always_hit ->
                    if l1_miss.(i) > 0 then
                      emit ~block:i ~code:"CCCS-E302"
                        (Printf.sprintf
                           "always-hit block missed the line cache %d times"
                           l1_miss.(i))
                | Cache_ai.Always_miss ->
                    if l1_hit.(i) > 0 || l0_hit.(i) > 0 then
                      emit ~block:i ~code:"CCCS-E303"
                        (Printf.sprintf
                           "always-miss block hit %d times (L1 %d, L0 %d)"
                           (l1_hit.(i) + l0_hit.(i))
                           l1_hit.(i) l0_hit.(i))
                | Cache_ai.Unclassified -> ());
                match c.Cache_ai.atb with
                | Cache_ai.Always_hit ->
                    if atb_miss.(i) > 0 then
                      emit ~block:i ~code:"CCCS-E302"
                        (Printf.sprintf
                           "always-hit block missed the ATB %d times"
                           atb_miss.(i))
                | Cache_ai.Always_miss ->
                    if atb_miss.(i) <> visits.(i) then
                      emit ~block:i ~code:"CCCS-E303"
                        (Printf.sprintf
                           "always-miss block hit the ATB: %d misses over \
                            %d visits"
                           atb_miss.(i) visits.(i))
                | Cache_ai.Unclassified -> ())
              ai.Cache_ai.classes;
            Some res.Fetch.Sim.cycles
      in
      let ratio =
        match sim_cycles with
        | Some c when c > 0 -> Some (float_of_int bound /. float_of_int c)
        | _ -> None
      in
      ( List.rev !diags,
        Some
          {
            scheme;
            model;
            bound;
            sim_cycles;
            ratio;
            blocks = nblocks;
            reachable = !reach;
            always_hit = !ah;
            always_miss = !am;
            unclassified = !uc;
            atb_always_hit = !atb_ah;
            charged_visits = !charged;
            trace_bounds = trace <> None;
          } )

let analyze ~workload ~program ?tailored ?trace ?default_loop_bound schemes =
  List.map
    (analyze_scheme ~workload ~program ?tailored ?trace ?default_loop_bound)
    schemes

(* The lint pass runs without a trace, so loops get the declared default
   bound: the point there is the diagnostics (E300/E304/W306 and any
   soundness error another caller recorded), not the absolute number. *)
let default_structural_bound = 64

let pass : (module Pass.S) =
  (module struct
    let name = "timing"

    let doc =
      "static fetch-timing: must/may cache abstract interpretation and \
       WCET cycle bounds over the recovered CFG"

    let run (t : Pass.target) =
      match t.Pass.program with
      | None -> []
      | Some program ->
          List.concat_map
            (fun sc ->
              fst
                (analyze_scheme ~workload:t.Pass.workload ~program
                   ?tailored:t.Pass.tailored
                   ~default_loop_bound:default_structural_bound sc))
            t.Pass.schemes
  end)
