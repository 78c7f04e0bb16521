type t = {
  gpr : int array;
  fpr : float array;
  pr : bool array;
  mem : int array;
  fmem : float array;
}

let create ~mem_size () =
  if mem_size <= 0 then invalid_arg "Machine.create: mem_size";
  let t =
    {
      gpr = Array.make Tepic.Reg.file_size 0;
      fpr = Array.make Tepic.Reg.file_size 0.;
      pr = Array.make Tepic.Reg.file_size false;
      mem = Array.make mem_size 0;
      fmem = Array.make mem_size 0.;
    }
  in
  t.pr.(0) <- true;
  t

type control =
  | Next
  | Goto of int
  | Call_to of { target : int }
  | Return_to of int
  | Halt

(* One class per arm of the MOP step, so the step matches no [Op.t].
   [Fload]/[Fstore] are memory ops with TCS = 1 (floating-point data);
   [Br] is BR, and BRCT, taken whenever its guard holds. *)
type kind =
  | Alu | Cmpp | Ldi | Itof | Ftoi | Fpu | Load | Fload | Store | Fstore
  | Br | Brcf | Brlc | Brl | Ret

(* Where a staged write lands. *)
type file = Wgpr | Wfpr | Wpr | Wmem | Wfmem

type branch = No_branch | Jump | Call | Return

type code = {
  kind : kind array;
  opcode : Tepic.Opcode.t array;
  guard : int array;
  dst : int array;
  src1 : int array;  (* also the BRL/RET link and the BRLC counter *)
  src2 : int array;
  imm : int array;  (* LDI literal, load BHWX or branch target *)
  mop_start : int array;
      (* MOP [m] is ops [mop_start.(m)] to [mop_start.(m + 1) - 1] *)
  (* The writes of the MOP in flight, committed in op order at its end. *)
  w_file : file array;
  w_at : int array;
  w_int : int array;
  w_flt : float array;
  mutable nw : int;
  mutable target : int;
}

(* [(kind, dst, src1, src2, imm)] of one op. *)
let decode_op (op : Tepic.Op.t) =
  match op.body with
  | Tepic.Op.Alu { src1; src2; dest; _ } -> (Alu, dest, src1, src2, 0)
  | Tepic.Op.Cmpp { src1; src2; dest; _ } -> (Cmpp, dest, src1, src2, 0)
  | Tepic.Op.Ldi { imm; dest; _ } -> (Ldi, dest, 0, 0, imm)
  | Tepic.Op.Fpu { opcode = ITOF; src1; src2; dest; _ } ->
      (Itof, dest, src1, src2, 0)
  | Tepic.Op.Fpu { opcode = FTOI; src1; src2; dest; _ } ->
      (Ftoi, dest, src1, src2, 0)
  | Tepic.Op.Fpu { src1; src2; dest; _ } -> (Fpu, dest, src1, src2, 0)
  | Tepic.Op.Load { src1; bhwx; tcs; dest; _ } ->
      ((if tcs = 1 then Fload else Load), dest, src1, 0, bhwx)
  | Tepic.Op.Store { src1; src2; tcs; _ } ->
      ((if tcs = 1 then Fstore else Store), 0, src1, src2, 0)
  | Tepic.Op.Branch { opcode; src1; counter; target } -> (
      match opcode with
      | BR | BRCT -> (Br, 0, src1, 0, target)
      | BRCF -> (Brcf, 0, src1, 0, target)
      | BRLC -> (Brlc, 0, counter, 0, target)
      | BRL -> (Brl, 0, src1, 0, target)
      | RET -> (Ret, 0, src1, 0, target)
      | _ -> invalid_arg "Machine.decode: not a branch opcode")

let decode mops =
  let ops = Array.of_list (List.concat mops) in
  let n = Array.length ops in
  let kind = Array.make n Alu and dst = Array.make n 0 in
  let src1 = Array.make n 0 and src2 = Array.make n 0 in
  let imm = Array.make n 0 in
  Array.iteri
    (fun i op ->
      let k, d, s1, s2, x = decode_op op in
      kind.(i) <- k;
      dst.(i) <- d;
      src1.(i) <- s1;
      src2.(i) <- s2;
      imm.(i) <- x)
    ops;
  let mop_start = Array.make (List.length mops + 1) 0 in
  List.iteri
    (fun m ops -> mop_start.(m + 1) <- mop_start.(m) + List.length ops)
    mops;
  let width =
    List.fold_left
      (fun w ops -> Int.max w (List.length ops))
      Tepic.Mop.issue_width mops
  in
  {
    kind;
    opcode = Array.map Tepic.Op.opcode ops;
    guard = Array.map (fun (op : Tepic.Op.t) -> op.pred) ops;
    dst;
    src1;
    src2;
    imm;
    mop_start;
    w_file = Array.make width Wgpr;
    w_at = Array.make width 0;
    w_int = Array.make width 0;
    w_flt = Array.make width 0.;
    nw = 0;
    target = 0;
  }

let target c = c.target

let stage c file at v =
  let k = c.nw in
  c.w_file.(k) <- file;
  c.w_at.(k) <- at;
  c.w_int.(k) <- v;
  c.nw <- k + 1

let stage_float c file at v =
  let k = c.nw in
  c.w_file.(k) <- file;
  c.w_at.(k) <- at;
  c.w_flt.(k) <- v;
  c.nw <- k + 1

let step t c ~block_id m =
  let gpr = t.gpr and fpr = t.fpr and pr = t.pr in
  let size = Array.length t.mem in
  let branch = ref No_branch in
  for i = c.mop_start.(m) to c.mop_start.(m + 1) - 1 do
    if pr.(c.guard.(i)) then begin
      let d = c.dst.(i) and s1 = c.src1.(i) and s2 = c.src2.(i) in
      match c.kind.(i) with
      | Alu -> stage c Wgpr d (Semantics.alu c.opcode.(i) gpr.(s1) gpr.(s2))
      | Cmpp ->
          stage c Wpr d
            (Bool.to_int (Semantics.cmpp c.opcode.(i) gpr.(s1) gpr.(s2)))
      | Ldi -> stage c Wgpr d c.imm.(i)
      | Itof -> stage_float c Wfpr d (float_of_int gpr.(s1))
      | Ftoi -> stage c Wgpr d (Semantics.ftoi fpr.(s1))
      | Fpu ->
          stage_float c Wfpr d (Semantics.fpu c.opcode.(i) fpr.(s1) fpr.(s2))
      | Load ->
          let v = t.mem.(Semantics.mem_index ~size gpr.(s1)) in
          stage c Wgpr d (Semantics.narrow ~bhwx:c.imm.(i) v)
      | Fload ->
          stage_float c Wfpr d t.fmem.(Semantics.mem_index ~size gpr.(s1))
      | Store -> stage c Wmem (Semantics.mem_index ~size gpr.(s1)) gpr.(s2)
      | Fstore ->
          stage_float c Wfmem (Semantics.mem_index ~size gpr.(s1)) fpr.(s2)
      | Br ->
          branch := Jump;
          c.target <- c.imm.(i)
      | Brcf -> ()
      | Brlc ->
          if gpr.(s1) > 0 then begin
            stage c Wgpr s1 (gpr.(s1) - 1);
            branch := Jump;
            c.target <- c.imm.(i)
          end
      | Brl ->
          stage c Wgpr s1 (block_id + 1);
          branch := Call;
          c.target <- c.imm.(i)
      | Ret ->
          branch := Return;
          c.target <- gpr.(s1)
    end
    else if c.kind.(i) = Brcf then begin
      (* BRCF branches when its guard is false. *)
      branch := Jump;
      c.target <- c.imm.(i)
    end
  done;
  for w = 0 to c.nw - 1 do
    let at = c.w_at.(w) in
    match c.w_file.(w) with
    | Wgpr -> gpr.(at) <- Semantics.wrap32 c.w_int.(w)
    | Wfpr -> fpr.(at) <- c.w_flt.(w)
    | Wpr -> if at <> 0 then pr.(at) <- c.w_int.(w) <> 0
    | Wmem -> t.mem.(at) <- Semantics.wrap32 c.w_int.(w)
    | Wfmem -> t.fmem.(at) <- c.w_flt.(w)
  done;
  c.nw <- 0;
  !branch

let exec_mop t ~block_id ops =
  let c = decode [ ops ] in
  match step t c ~block_id 0 with
  | No_branch -> Next
  | Jump -> Goto c.target
  | Call -> Call_to { target = c.target }
  | Return -> if c.target < 0 then Halt else Return_to c.target

let checksum t =
  let h = ref 0x811C9DC5 in
  let mix v = h := (!h lxor v) * 0x01000193 land max_int in
  Array.iter mix t.gpr;
  Array.iter (fun f -> mix (Hashtbl.hash f)) t.fpr;
  Array.iter (fun b -> mix (if b then 1 else 2)) t.pr;
  Array.iter mix t.mem;
  Array.iter (fun f -> mix (Hashtbl.hash f)) t.fmem;
  !h

let mem_checksum t =
  let h = ref 0x811C9DC5 in
  let mix v = h := (!h lxor v) * 0x01000193 land max_int in
  Array.iter mix t.mem;
  Array.iter (fun f -> mix (Hashtbl.hash f)) t.fmem;
  !h
