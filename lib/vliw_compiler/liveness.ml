module VSet = Set.Make (struct
  type t = Ir.vreg

  let compare = Ir.compare_vreg
end)

type t = {
  live_in : VSet.t array;
  live_out : VSet.t array;
}

let block_uses_defs (bb : Cfg.bb) =
  let uses = ref VSet.empty and defs = ref VSet.empty in
  let use v = if not (VSet.mem v !defs) then uses := VSet.add v !uses in
  let def v = defs := VSet.add v !defs in
  List.iter
    (fun g ->
      List.iter use (Ir.uses_guarded g);
      (* A guarded definition only conditionally writes its target, so the
         old value may flow through: treat the destination as used too. *)
      match Ir.defs g.Ir.inst with
      | Some d ->
          if g.Ir.pred <> None then use d;
          def d
      | None -> ())
    bb.insts;
  List.iter use (Cfg.term_uses bb.term);
  List.iter def (Cfg.term_defs bb.term);
  (!uses, !defs)

let analyze cfg =
  let n = Cfg.num_blocks cfg in
  let live_in = Array.make n VSet.empty in
  let live_out = Array.make n VSet.empty in
  let gens = Array.make n VSet.empty and kills = Array.make n VSet.empty in
  for i = 0 to n - 1 do
    let uses, defs = block_uses_defs (Cfg.block cfg i) in
    gens.(i) <- uses;
    kills.(i) <- defs
  done;
  let changed = ref true in
  while !changed do
    changed := false;
    for i = n - 1 downto 0 do
      let out =
        List.fold_left
          (fun acc s -> VSet.union acc live_in.(s))
          VSet.empty (Cfg.successors cfg i)
      in
      let inn = VSet.union gens.(i) (VSet.diff out kills.(i)) in
      if not (VSet.equal out live_out.(i)) || not (VSet.equal inn live_in.(i))
      then begin
        live_out.(i) <- out;
        live_in.(i) <- inn;
        changed := true
      end
    done
  done;
  { live_in; live_out }
