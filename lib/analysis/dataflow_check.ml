(* IR/CFG dataflow lint.

   Runs on the register-allocated CFG (the reference semantics of the
   compiled program, pre-scheduling).  Combines a forward reaching-definition
   analysis with the existing backward liveness fixpoint:

   - CCCS-E001  instruction operand with no reaching definition on any path
   - CCCS-E002  terminator operand (guard predicate, loop counter, link)
                with no reaching definition
   - CCCS-E003  return link register never defined by any call
   - CCCS-W004  definition never used (dead code)
   - CCCS-W005  block unreachable from the entry
   - CCCS-W006  register live into the entry block (external input)

   The error codes are definite: E001/E002 fire only when *no* path from
   the entry defines the register, so precolored inputs must be declared
   via [inputs] (the compiler driver passes the generator's precolored
   set). *)

module Cfg = Vliw_compiler.Cfg
module Ir = Vliw_compiler.Ir
module Liveness = Vliw_compiler.Liveness
module VSet = Liveness.VSet

let vreg_name (v : Ir.vreg) =
  Printf.sprintf "%s%d" (Tepic.Reg.cls_to_string v.Ir.vcls) v.Ir.vid

let reachable (cfg : Cfg.t) =
  let n = Cfg.num_blocks cfg in
  let seen = Array.make n false in
  let rec go i =
    if not seen.(i) then begin
      seen.(i) <- true;
      List.iter go (Cfg.successors cfg i)
    end
  in
  go cfg.Cfg.entry;
  seen

(* Forward may-definition fixpoint: [out.(b)] is the set of registers
   defined on at least one path from the entry through the end of [b]. *)
let may_defs (cfg : Cfg.t) ~inputs ~seen =
  let n = Cfg.num_blocks cfg in
  let block_defs = Array.make n VSet.empty in
  for i = 0 to n - 1 do
    let bb = Cfg.block cfg i in
    let ds = ref VSet.empty in
    List.iter
      (fun g ->
        match Ir.defs g.Ir.inst with
        | Some d -> ds := VSet.add d !ds
        | None -> ())
      bb.Cfg.insts;
    List.iter (fun d -> ds := VSet.add d !ds) (Cfg.term_defs bb.Cfg.term);
    block_defs.(i) <- !ds
  done;
  let preds = Cfg.predecessors cfg in
  let inn = Array.make n VSet.empty in
  let out = Array.make n VSet.empty in
  inn.(cfg.Cfg.entry) <- inputs;
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to n - 1 do
      if seen.(i) then begin
        let from_preds =
          List.fold_left
            (fun acc p -> if seen.(p) then VSet.union acc out.(p) else acc)
            VSet.empty preds.(i)
        in
        let inn' =
          if i = cfg.Cfg.entry then VSet.union inputs from_preds
          else from_preds
        in
        let out' = VSet.union inn' block_defs.(i) in
        if not (VSet.equal inn' inn.(i)) || not (VSet.equal out' out.(i))
        then begin
          inn.(i) <- inn';
          out.(i) <- out';
          changed := true
        end
      end
    done
  done;
  inn

let check ?(inputs = []) ~workload (cfg : Cfg.t) =
  let diags = ref [] in
  let emit ?block ?inst code msg =
    diags :=
      Diag.make ~code ~loc:(Diag.loc ?block ?inst workload) msg :: !diags
  in
  let n = Cfg.num_blocks cfg in
  let seen = reachable cfg in
  for i = 0 to n - 1 do
    if not seen.(i) then
      emit ~block:i "CCCS-W005"
        (Printf.sprintf "block %d is unreachable from entry %d" i
           cfg.Cfg.entry)
  done;
  let inputs = VSet.of_list inputs in
  let reach_in = may_defs cfg ~inputs ~seen in
  (* Definite use-before-def, instruction by instruction. *)
  for i = 0 to n - 1 do
    if seen.(i) then begin
      let bb = Cfg.block cfg i in
      let defined = ref reach_in.(i) in
      List.iteri
        (fun j g ->
          List.iter
            (fun u ->
              if not (VSet.mem u !defined) then
                emit ~block:i ~inst:j "CCCS-E001"
                  (Printf.sprintf
                     "register %s is read but no path from entry defines it"
                     (vreg_name u)))
            (Ir.uses_guarded g);
          match Ir.defs g.Ir.inst with
          | Some d -> defined := VSet.add d !defined
          | None -> ())
        bb.Cfg.insts;
      List.iter
        (fun u ->
          if not (VSet.mem u !defined) then
            emit ~block:i "CCCS-E002"
              (Printf.sprintf
                 "terminator reads register %s but no path from entry \
                  defines it"
                 (vreg_name u)))
        (Cfg.term_uses bb.Cfg.term)
    end
  done;
  (* Call/return link-register discipline: the only legitimate producer of
     a return address is a call (or a declared input). *)
  let call_links = ref VSet.empty in
  for i = 0 to n - 1 do
    match (Cfg.block cfg i).Cfg.term with
    | Cfg.Call { link; _ } -> call_links := VSet.add link !call_links
    | _ -> ()
  done;
  for i = 0 to n - 1 do
    if seen.(i) then
      match (Cfg.block cfg i).Cfg.term with
      | Cfg.Return { link } ->
          if not (VSet.mem link !call_links || VSet.mem link inputs) then
            emit ~block:i "CCCS-E003"
              (Printf.sprintf
                 "return reads link register %s, which no call defines"
                 (vreg_name link))
      | _ -> ()
  done;
  (* Dead definitions, via the backward liveness fixpoint. *)
  let live = Liveness.analyze cfg in
  for i = 0 to n - 1 do
    if seen.(i) then begin
      let bb = Cfg.block cfg i in
      let live_now =
        ref
          (VSet.union live.Liveness.live_out.(i)
             (VSet.diff
                (VSet.of_list (Cfg.term_uses bb.Cfg.term))
                (VSet.of_list (Cfg.term_defs bb.Cfg.term))))
      in
      let insts = Array.of_list bb.Cfg.insts in
      for j = Array.length insts - 1 downto 0 do
        let g = insts.(j) in
        (match Ir.defs g.Ir.inst with
        | Some d ->
            if not (VSet.mem d !live_now) then
              emit ~block:i ~inst:j "CCCS-W004"
                (Printf.sprintf "register %s is written but never read"
                   (vreg_name d));
            if g.Ir.pred = None then live_now := VSet.remove d !live_now
        | None -> ());
        List.iter
          (fun u -> live_now := VSet.add u !live_now)
          (Ir.uses_guarded g)
      done
    end
  done;
  (* External inputs: registers the program expects the environment to have
     set.  Declared inputs are fine; everything else is surfaced. *)
  VSet.iter
    (fun v ->
      if not (VSet.mem v inputs) then
        emit ~block:cfg.Cfg.entry "CCCS-W006"
          (Printf.sprintf
             "register %s is live into the entry block (undeclared input)"
             (vreg_name v)))
    live.Liveness.live_in.(cfg.Cfg.entry);
  List.rev !diags

let pass : (module Pass.S) =
  (module struct
    let name = "dataflow"
    let doc = "IR/CFG dataflow lint (liveness + reaching definitions)"

    let run (t : Pass.target) =
      match t.Pass.cfg with
      | None -> []
      | Some cfg ->
          check ~inputs:[] ~workload:t.Pass.workload cfg
  end)
