module VSet = Liveness.VSet

module VMap = Map.Make (struct
  type t = Ir.vreg

  let compare = Ir.compare_vreg
end)

let log_src = Logs.Src.create "cccs.regalloc" ~doc:"Linear-scan allocator"

module Log = (val Logs.src_log log_src : Logs.LOG)

type result = {
  cfg : Cfg.t;
  spill_slots : int;
  max_live : (Tepic.Reg.cls * int) list;
}

type interval = {
  vreg : Ir.vreg;
  start : int;
  stop : int;
  home : int;  (** a block that touches the vreg; picks its group *)
}

(* Global instruction numbering: block [i] occupies positions
   [starts.(i) .. starts.(i) + len_i], the terminator taking the last one. *)
let number_blocks cfg =
  let n = Cfg.num_blocks cfg in
  let starts = Array.make n 0 in
  let pos = ref 0 in
  for i = 0 to n - 1 do
    starts.(i) <- !pos;
    pos := !pos + List.length (Cfg.block cfg i).Cfg.insts + 1
  done;
  starts

let build_intervals cfg =
  let live = Liveness.analyze cfg in
  let starts = number_blocks cfg in
  let tbl : (int * int * int) ref VMap.t ref = ref VMap.empty in
  let touch v p blk =
    match VMap.find_opt v !tbl with
    | Some r ->
        let lo, hi, home = !r in
        r := (Int.min lo p, Int.max hi p, home)
    | None -> tbl := VMap.add v (ref (p, p, blk)) !tbl
  in
  let n = Cfg.num_blocks cfg in
  for i = 0 to n - 1 do
    let b = Cfg.block cfg i in
    let bstart = starts.(i) in
    let bend = bstart + List.length b.Cfg.insts in
    VSet.iter (fun v -> touch v bstart i) live.Liveness.live_in.(i);
    VSet.iter (fun v -> touch v bend i) live.Liveness.live_out.(i);
    List.iteri
      (fun j g ->
        let p = bstart + j in
        List.iter (fun v -> touch v p i) (Ir.uses_guarded g);
        match Ir.defs g.Ir.inst with Some d -> touch d p i | None -> ())
      b.Cfg.insts;
    List.iter (fun v -> touch v bend i) (Cfg.term_uses b.Cfg.term);
    List.iter (fun v -> touch v bend i) (Cfg.term_defs b.Cfg.term)
  done;
  VMap.fold
    (fun vreg r acc ->
      let start, stop, home = !r in
      { vreg; start; stop; home } :: acc)
    !tbl []
  |> List.sort (fun a b ->
         if a.start <> b.start then Int.compare a.start b.start
         else Ir.compare_vreg a.vreg b.vreg)

(* Registers a terminator reads or writes anywhere in the program: they must
   not be spilled, because branch units have no memory path. *)
let unspillable_set cfg =
  let n = Cfg.num_blocks cfg in
  let acc = ref VSet.empty in
  for i = 0 to n - 1 do
    let t = (Cfg.block cfg i).Cfg.term in
    List.iter (fun v -> acc := VSet.add v !acc) (Cfg.term_uses t);
    List.iter (fun v -> acc := VSet.add v !acc) (Cfg.term_defs t)
  done;
  !acc

(* Predicate registers have no memory path either (no predicate load in the
   ISA subset): never pick them as spill victims. *)
let spill_forbidden unspillable (v : Ir.vreg) =
  v.Ir.vcls = Tepic.Reg.Pr || VSet.mem v unspillable

module ISet = Set.Make (Int)

(* One linear-scan pass over the intervals of a single (class, group) pair.
   Returns assignments, spill victims, and the peak live count.  Free
   registers are taken lowest-index-first: reusing the same few names
   minimizes the distinct-register count the tailored encoder pays for and
   maximizes whole-op repetition for the Huffman dictionaries — exactly
   what a compiler targeting a tailored ISA would do (paper §2.3). *)
let scan_group intervals pool unspillable =
  let free = ref (ISet.of_list pool) in
  let active : (int * interval) list ref = ref [] in
  let assign = ref VMap.empty in
  let spills = ref [] in
  let peak = ref 0 in
  let expire now =
    let expired, kept = List.partition (fun (_, it) -> it.stop < now) !active in
    List.iter (fun (phys, _) -> free := ISet.add phys !free) expired;
    active := kept
  in
  List.iter
    (fun it ->
      expire it.start;
      peak := Int.max !peak (List.length !active + 1);
      if ISet.is_empty !free then begin
        let spillable (_, a) = not (spill_forbidden unspillable a.vreg) in
        let worst =
          List.fold_left
            (fun acc cand ->
              if not (spillable cand) then acc
              else
                match acc with
                | Some (_, b) when b.stop >= (snd cand).stop -> acc
                | _ -> Some cand)
            None !active
        in
        let current_spillable = not (spill_forbidden unspillable it.vreg) in
        match worst with
        | Some ((phys, w) as entry)
          when w.stop > it.stop || not current_spillable ->
            active := List.filter (fun e -> e != entry) !active;
            spills := w.vreg :: !spills;
            assign := VMap.remove w.vreg !assign;
            assign := VMap.add it.vreg phys !assign;
            active := (phys, it) :: !active
        | Some _ -> spills := it.vreg :: !spills
        | None ->
            if current_spillable then spills := it.vreg :: !spills
            else invalid_arg "Regalloc: unspillable registers exceed the pool"
      end
      else begin
        let phys = ISet.min_elt !free in
        free := ISet.remove phys !free;
        assign := VMap.add it.vreg phys !assign;
        active := (phys, it) :: !active
      end)
    intervals;
  (!assign, !spills, !peak)

(* Rewrite spilled vregs with loads/stores around each occurrence.  Fresh
   vregs get ids starting above [fresh_base]. *)
let rewrite_spills cfg spilled fresh_base =
  let fresh = ref fresh_base in
  let next cls =
    incr fresh;
    { Ir.vcls = cls; vid = !fresh }
  in
  let is_spilled v = VMap.mem v spilled in
  let addr_of v = VMap.find v spilled in
  let rewrite_inst g =
    let pre = ref [] and post = ref [] in
    let subst_use v =
      if is_spilled v then begin
        let a = next Tepic.Reg.Gpr in
        let t = next v.Ir.vcls in
        pre :=
          !pre
          @ [
              Ir.unguarded (Ir.Ldi { dst = a; imm = addr_of v });
              Ir.unguarded
                (Ir.Load { opcode = Tepic.Opcode.LW; dst = t; addr = a; lat = 2 });
            ];
        t
      end
      else v
    in
    let subst_def v =
      if is_spilled v then begin
        let t = next v.Ir.vcls in
        let a = next Tepic.Reg.Gpr in
        post :=
          !post
          @ [
              Ir.unguarded (Ir.Ldi { dst = a; imm = addr_of v });
              Ir.unguarded
                (Ir.Store { opcode = Tepic.Opcode.SW; addr = a; data = t });
            ];
        t
      end
      else v
    in
    let inst =
      match g.Ir.inst with
      | Ir.Alu b ->
          let src1 = subst_use b.src1 and src2 = subst_use b.src2 in
          Ir.Alu { b with src1; src2; dst = subst_def b.dst }
      | Ir.Ldi b -> Ir.Ldi { b with dst = subst_def b.dst }
      | Ir.Cmpp b ->
          let src1 = subst_use b.src1 and src2 = subst_use b.src2 in
          Ir.Cmpp { b with src1; src2; dst = subst_def b.dst }
      | Ir.Fpu b ->
          let src1 = subst_use b.src1 and src2 = subst_use b.src2 in
          Ir.Fpu { b with src1; src2; dst = subst_def b.dst }
      | Ir.Load b ->
          let addr = subst_use b.addr in
          Ir.Load { b with addr; dst = subst_def b.dst }
      | Ir.Store b ->
          let addr = subst_use b.addr and data = subst_use b.data in
          Ir.Store { b with addr; data }
    in
    let pred =
      match g.Ir.pred with
      | Some p when is_spilled p ->
          (* Predicates that guard code cannot be reloaded through the Pr
             file in this ISA subset; the generator keeps predicate pressure
             low enough that this never triggers. *)
          invalid_arg "Regalloc: spilled guard predicate"
      | p -> p
    in
    !pre @ ({ Ir.inst; pred; spec = g.Ir.spec } :: !post)
  in
  Cfg.map_blocks
    (fun b -> { b with insts = List.concat_map rewrite_inst b.Cfg.insts })
    cfg

let allocate ~allowed ?(group_of_block = fun _ -> 0) ?(precolored = [])
    ~spill_base cfg =
  let pre_map =
    List.fold_left (fun m (v, p) -> VMap.add v p m) VMap.empty precolored
  in
  let classes = [ Tepic.Reg.Gpr; Tepic.Reg.Fpr; Tepic.Reg.Pr ] in
  let spill_slots = ref 0 in
  let next_slot () =
    let s = spill_base + !spill_slots in
    incr spill_slots;
    s
  in
  let rec attempt cfg round =
    if round > 12 then invalid_arg "Regalloc.allocate: did not converge";
    let intervals = build_intervals cfg in
    let unspillable = unspillable_set cfg in
    let groups =
      List.sort_uniq Int.compare
        (List.map (fun it -> group_of_block it.home) intervals)
    in
    let results =
      List.concat_map
        (fun c ->
          List.map
            (fun grp ->
              let its =
                List.filter
                  (fun it ->
                    it.vreg.Ir.vcls = c
                    && group_of_block it.home = grp
                    && not (VMap.mem it.vreg pre_map))
                  intervals
              in
              let pool = allowed c grp in
              List.iter
                (fun r ->
                  if r < 0 || r >= Tepic.Reg.file_size then
                    invalid_arg "Regalloc.allocate: bad pool register")
                pool;
              (c, scan_group its pool unspillable))
            groups)
        classes
    in
    let all_spills =
      List.concat_map (fun (_, (_, spills, _)) -> spills) results
    in
    if all_spills = [] then begin
      let assign =
        List.fold_left
          (fun acc (_, (a, _, _)) -> VMap.union (fun _ x _ -> Some x) acc a)
          pre_map results
      in
      let max_live =
        List.map
          (fun c ->
            let peak =
              List.fold_left
                (fun m (c', (_, _, p)) -> if c' = c then Int.max m p else m)
                0 results
            in
            (c, peak))
          classes
      in
      let cfg =
        Cfg.map_vregs
          (fun v ->
            match VMap.find_opt v assign with
            | Some phys -> { v with Ir.vid = phys }
            | None ->
                invalid_arg
                  (Printf.sprintf "Regalloc: unassigned register %s%d"
                     (Tepic.Reg.cls_to_string v.Ir.vcls) v.Ir.vid))
          cfg
      in
      Log.debug (fun m ->
          m "converged after %d round(s): %d spill slot(s), peak live %s"
            (round + 1) !spill_slots
            (String.concat " "
               (List.map
                  (fun (c, p) ->
                    Printf.sprintf "%s=%d" (Tepic.Reg.cls_to_string c) p)
                  max_live)));
      { cfg; spill_slots = !spill_slots; max_live }
    end
    else begin
      let spill_map =
        List.fold_left
          (fun m v -> if VMap.mem v m then m else VMap.add v (next_slot ()) m)
          VMap.empty all_spills
      in
      let max_vid =
        List.fold_left (fun a it -> Int.max a it.vreg.Ir.vid) 0 intervals
      in
      let cfg = rewrite_spills cfg spill_map (max_vid + 1) in
      attempt cfg (round + 1)
    end
  in
  attempt cfg 0
