module VSet = Liveness.VSet

let log_src = Logs.Src.create "cccs.schedule" ~doc:"Treegion scheduler"

module Log = (val Logs.src_log log_src : Logs.LOG)

type t = {
  cfg : Cfg.t;
  cycles : Ir.guarded list list array;
  hoisted : int;
}

(* An instruction with its destination and guarded sources, listed once
   per block rather than once per dependence test. *)
type node = { g : Ir.guarded; defs : Ir.vreg list; uses : Ir.vreg list }

let node g =
  { g; defs = Option.to_list (Ir.defs g.Ir.inst); uses = Ir.uses_guarded g }

(* Dependence kinds between two instructions, expressed as the minimum
   cycle distance from the earlier to the later one.  0 = may share a
   cycle (VLIW reads commit before writes); -1 = independent. *)
let min_distance a b =
  let inter xs ys =
    List.exists (fun x -> List.exists (Ir.equal_vreg x) ys) xs
  in
  (* RAW: b reads what a writes. *)
  let raw = if inter a.defs b.uses then Ir.latency a.g.Ir.inst else -1 in
  (* WAW: both write the same register. *)
  let waw = if inter a.defs b.defs then 1 else -1 in
  (* WAR: b overwrites something a reads — same cycle is fine. *)
  let war = if inter a.uses b.defs then 0 else -1 in
  (* Memory ordering: stores are barriers against later memory ops; a load
     before a store may share its cycle (the load reads pre-cycle memory,
     which is also what original program order produced only if the store
     came later — so keep distance 0 for load->store, 1 for store->X). *)
  let mem =
    match (a.g.Ir.inst, b.g.Ir.inst) with
    | Ir.Store _, (Ir.Store _ | Ir.Load _) -> 1
    | Ir.Load _, Ir.Store _ -> 0
    | _ -> -1
  in
  Int.max (Int.max raw waw) (Int.max war mem)

let schedule_block (insts : Ir.guarded list) =
  let n = List.length insts in
  if n = 0 then [||]
  else begin
    let arr = Array.of_list (List.map node insts) in
    (* succ.(i) = (j, dist) list; pred_count for ready-list scheduling. *)
    let succs = Array.make n [] in
    let npreds = Array.make n 0 in
    let earliest = Array.make n 0 in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let d = min_distance arr.(i) arr.(j) in
        if d >= 0 then begin
          succs.(i) <- (j, d) :: succs.(i);
          npreds.(j) <- npreds.(j) + 1
        end
      done
    done;
    (* Priority: critical-path height. *)
    let height = Array.make n 0 in
    for i = n - 1 downto 0 do
      List.iter
        (fun (j, d) ->
          height.(i) <- Int.max height.(i) (height.(j) + Int.max d 1))
        succs.(i)
    done;
    let scheduled = Array.make n false in
    let cycle_of = Array.make n 0 in
    let remaining = ref n in
    let cycle = ref 0 in
    let out = ref [] in
    while !remaining > 0 do
      let slots = ref Tepic.Mop.issue_width in
      let mem_slots = ref Tepic.Mop.mem_units in
      let this_cycle = ref [] in
      (* Iterate within the cycle: scheduling an op may release a
         distance-0 dependent (a WAR pair) into this same cycle. *)
      let progress = ref true in
      while !progress && !slots > 0 do
        progress := false;
        let ready =
          List.init n Fun.id
          |> List.filter (fun i ->
                 (not scheduled.(i)) && npreds.(i) = 0 && earliest.(i) <= !cycle)
          |> List.sort (fun i j ->
                 if height.(i) <> height.(j) then compare height.(j) height.(i)
                 else compare i j)
        in
        List.iter
          (fun i ->
            let is_mem = Ir.is_memory arr.(i).g.Ir.inst in
            if !slots > 0 && ((not is_mem) || !mem_slots > 0) then begin
              scheduled.(i) <- true;
              cycle_of.(i) <- !cycle;
              decr slots;
              if is_mem then decr mem_slots;
              decr remaining;
              this_cycle := i :: !this_cycle;
              progress := true;
              (* Release dependents immediately so distance-0 successors
                 become candidates within this cycle. *)
              List.iter
                (fun (j, d) ->
                  npreds.(j) <- npreds.(j) - 1;
                  let at = if d = 0 then !cycle else !cycle + d in
                  earliest.(j) <- Int.max earliest.(j) at)
                succs.(i)
            end)
          ready
      done;
      out := List.rev_map (fun i -> arr.(i).g) !this_cycle :: !out;
      incr cycle
    done;
    (* Drop empty trailing/intermediate cycles: the fetch-side metric counts
       MOPs delivered, and zero-NOP encoding stores no empty cycles. *)
    !out |> List.rev
    |> List.filter (fun c -> c <> [])
    |> Array.of_list
  end

(* Treegion speculation: try to move safe ops from the first cycle of
   [child] into the last cycle of [parent]. *)
let try_hoist ~cfg ~live ~cycles ~parent ~child =
  let parent_cycles = cycles.(parent) and child_cycles = cycles.(child) in
  if Array.length child_cycles = 0 then 0
  else begin
    let parent_term = (Cfg.block cfg parent).Cfg.term in
    let is_call = match parent_term with Cfg.Call _ -> true | _ -> false in
    let last_idx = Array.length parent_cycles - 1 in
    let last_cycle = if last_idx >= 0 then parent_cycles.(last_idx) else [] in
    let term_slot = match parent_term with Cfg.Fallthrough -> 0 | _ -> 1 in
    let free_slots =
      Tepic.Mop.issue_width - List.length last_cycle - term_slot
    in
    let free_mem =
      Tepic.Mop.mem_units
      - List.length (List.filter (fun g -> Ir.is_memory g.Ir.inst) last_cycle)
    in
    let last_has_store =
      List.exists (fun g -> match g.Ir.inst with Ir.Store _ -> true | _ -> false)
        last_cycle
    in
    let other_succs =
      List.filter (fun s -> s <> child) (Cfg.successors cfg parent)
    in
    let defs_of g = match Ir.defs g.Ir.inst with Some d -> [ d ] | None -> [] in
    let mem_vreg v vs = List.exists (Ir.equal_vreg v) vs in
    let last_cycle_defs = List.concat_map defs_of last_cycle in
    (* Producer availability: a source defined in an earlier parent cycle at
       distance < latency cannot be read in the last cycle. *)
    let source_ready v =
      let ok = ref true in
      Array.iteri
        (fun c ops ->
          List.iter
            (fun g ->
              if mem_vreg v (defs_of g) then
                if c + Ir.latency g.Ir.inst > last_idx then ok := false)
            ops)
        parent_cycles;
      !ok
    in
    let term_defs = Cfg.term_defs parent_term in
    let first = child_cycles.(0) in
    let eligible g =
      g.Ir.pred = None
      && (match g.Ir.inst with
         | Ir.Alu _ | Ir.Ldi _ | Ir.Fpu _ -> true
         | Ir.Load _ -> (not is_call) && not last_has_store
         | Ir.Cmpp _ | Ir.Store _ -> false)
      &&
      match Ir.defs g.Ir.inst with
      | None -> false
      | Some d ->
          (* Dead on every alternate path. *)
          List.for_all
            (fun s -> not (VSet.mem d live.Liveness.live_in.(s)))
            other_succs
          (* No WAW with the parent's last cycle or its terminator. *)
          && (not (mem_vreg d last_cycle_defs))
          && (not (mem_vreg d term_defs))
          (* Sources available in the parent's last cycle. *)
          && List.for_all source_ready (Ir.uses_guarded g)
          (* No same-cycle reader of the old value left behind in child. *)
          && not
               (List.exists
                  (fun g' -> g' != g && mem_vreg d (Ir.uses_guarded g'))
                  first)
    in
    let mem_budget = ref free_mem in
    let picked, kept =
      List.fold_left
        (fun (picked, kept) g ->
          let is_mem = Ir.is_memory g.Ir.inst in
          if
            List.length picked < free_slots
            && eligible g
            && ((not is_mem) || !mem_budget > 0)
            (* A hoisted op must not write a register another hoisted op
               writes (WAW inside the receiving cycle). *)
            && not
                 (List.exists
                    (fun p ->
                      match (Ir.defs p.Ir.inst, Ir.defs g.Ir.inst) with
                      | Some a, Some b -> Ir.equal_vreg a b
                      | _ -> false)
                    picked)
          then begin
            if is_mem then decr mem_budget;
            (g :: picked, kept)
          end
          else (picked, g :: kept))
        ([], []) first
    in
    let picked = List.rev picked and kept = List.rev kept in
    if picked = [] then 0
    else begin
      let picked = List.map Ir.speculative picked in
      parent_cycles.(last_idx) <- last_cycle @ picked;
      let child' =
        if kept = [] then
          Array.sub child_cycles 1 (Array.length child_cycles - 1)
        else begin
          let c = Array.copy child_cycles in
          c.(0) <- kept;
          c
        end
      in
      cycles.(child) <- child';
      List.length picked
    end
  end

let run ?(speculate = true) ?edge_profile cfg =
  let n = Cfg.num_blocks cfg in
  let cycles =
    Array.init n (fun i -> schedule_block (Cfg.block cfg i).Cfg.insts)
  in
  let hoisted = ref 0 in
  if speculate then begin
    let live = Liveness.analyze cfg in
    let regions = Treegion.form cfg in
    (* At most one child may donate ops to a given parent: two siblings (the
       arms of a diamond) could otherwise both write the same register into
       the parent's last cycle, merging values that were exclusive in the
       original program.  The liveness snapshot also stays conservative this
       way (a moved definition can only shrink the donor's live-in). *)
    let donated = Hashtbl.create 17 in
    List.iter
      (fun r ->
        (* With a profile, a parent donates to its hottest child first. *)
        let edges =
          match edge_profile with
          | None -> r.Treegion.parent
          | Some w ->
              List.stable_sort
                (fun (c1, p1) (c2, p2) ->
                  if p1 <> p2 then compare p1 p2
                  else compare (w p2 c2) (w p1 c1))
                r.Treegion.parent
        in
        List.iter
          (fun (child, parent) ->
            if
              Array.length cycles.(parent) > 0
              && not (Hashtbl.mem donated parent)
            then begin
              let k = try_hoist ~cfg ~live ~cycles ~parent ~child in
              if k > 0 then Hashtbl.replace donated parent ();
              hoisted := !hoisted + k
            end)
          edges)
      regions
  end;
  Log.debug (fun m ->
      m "scheduled %d block(s), hoisted %d op(s) above branches" n !hoisted);
  let cycles = Array.map Array.to_list cycles in
  { cfg; cycles; hoisted = !hoisted }

let block_cycles t id = t.cycles.(id)

let ilp t =
  let ops = ref 0 and cyc = ref 0 in
  Array.iter
    (List.iter (fun c ->
         incr cyc;
         ops := !ops + List.length c))
    t.cycles;
  if !cyc = 0 then 0. else float_of_int !ops /. float_of_int !cyc
