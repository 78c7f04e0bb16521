(* Where a field sits in the 40-bit word of a format: its shift above bit
   0 and its width, read off [Format_spec.layout] once at module
   initialization.  [to_int] places each field value at its slot. *)
type slot = { name : string; shift : int; width : int }

let slots fields names =
  let _, placed =
    List.fold_left
      (fun (left, acc) { Format_spec.fname = name; width } ->
        (left - width, (name, { name; shift = left - width; width }) :: acc))
      (Format_spec.op_bits, []) fields
  in
  Array.map (fun name -> List.assoc name placed) names

let prefix = slots Format_spec.prefix [| "T"; "S"; "OPT"; "OPCODE" |]
let of_kind k = slots (Format_spec.layout k)
let alu = of_kind K_alu [| "SRC1"; "SRC2"; "BHWX"; "DEST"; "L1"; "PRED" |]

let cmpp =
  of_kind K_cmpp [| "SRC1"; "SRC2"; "BHWX"; "D1"; "DEST"; "L1"; "PRED" |]

let ldi = of_kind K_ldi [| "IMM"; "DEST"; "L1"; "PRED" |]
let fpu = of_kind K_fpu [| "SRC1"; "SRC2"; "SD"; "TSS"; "DEST"; "L1"; "PRED" |]

let load =
  of_kind K_load [| "SRC1"; "BHWX"; "SCS"; "TCS"; "LAT"; "DEST"; "PRED" |]

let store = of_kind K_store [| "SRC1"; "SRC2"; "BHWX"; "TCS"; "L1"; "PRED" |]
let branch = of_kind K_branch [| "SRC1"; "COUNTER"; "TARGET"; "PRED" |]

let put s v =
  if v < 0 || v lsr s.width <> 0 then
    invalid_arg
      (Printf.sprintf "Encode.to_int: field %s does not fit %d bits: %d" s.name
         s.width v);
  v lsl s.shift

let bit b = if b then 1 else 0

let to_int (op : Op.t) =
  let oc = Op.opcode op in
  let head =
    put prefix.(0) (bit op.tail)
    lor put prefix.(1) (bit op.spec)
    lor put prefix.(2) (Opcode.optype_code (Opcode.optype oc))
    lor put prefix.(3) (Opcode.code oc)
  in
  match op.body with
  | Alu { src1; src2; bhwx; dest; l1; _ } ->
      let s = alu in
      head lor put s.(0) src1 lor put s.(1) src2 lor put s.(2) bhwx
      lor put s.(3) dest lor put s.(4) (bit l1) lor put s.(5) op.pred
  | Cmpp { src1; src2; bhwx; d1; dest; l1; _ } ->
      let s = cmpp in
      head lor put s.(0) src1 lor put s.(1) src2 lor put s.(2) bhwx
      lor put s.(3) d1 lor put s.(4) dest lor put s.(5) (bit l1)
      lor put s.(6) op.pred
  | Ldi { imm; dest; l1 } ->
      let s = ldi in
      head lor put s.(0) imm lor put s.(1) dest lor put s.(2) (bit l1)
      lor put s.(3) op.pred
  | Fpu { src1; src2; sd; tss; dest; l1; _ } ->
      let s = fpu in
      head lor put s.(0) src1 lor put s.(1) src2 lor put s.(2) (bit sd)
      lor put s.(3) tss lor put s.(4) dest lor put s.(5) (bit l1)
      lor put s.(6) op.pred
  | Load { src1; bhwx; scs; tcs; lat; dest; _ } ->
      let s = load in
      head lor put s.(0) src1 lor put s.(1) bhwx lor put s.(2) scs
      lor put s.(3) tcs lor put s.(4) lat lor put s.(5) dest
      lor put s.(6) op.pred
  | Store { src1; src2; bhwx; tcs; l1; _ } ->
      let s = store in
      head lor put s.(0) src1 lor put s.(1) src2 lor put s.(2) bhwx
      lor put s.(3) tcs lor put s.(4) (bit l1) lor put s.(5) op.pred
  | Branch { src1; counter; target; _ } ->
      let s = branch in
      head lor put s.(0) src1 lor put s.(1) counter lor put s.(2) target
      lor put s.(3) op.pred

let encode w op = Bits.Writer.add_bits w ~width:Format_spec.op_bits (to_int op)

let decode r =
  let start = Bits.Reader.pos r in
  let tail = Bits.Reader.read_bits r ~width:1 in
  let spec = Bits.Reader.read_bits r ~width:1 in
  let opt = Bits.Reader.read_bits r ~width:2 in
  let code = Bits.Reader.read_bits r ~width:5 in
  ignore (tail, spec);
  let opcode =
    match Opcode.of_code (Opcode.optype_of_code opt) code with
    | Some oc -> oc
    | None ->
        invalid_arg
          (Printf.sprintf "Encode.decode: undefined opcode point %d/%d" opt code)
  in
  let layout = Format_spec.layout (Opcode.kind opcode) in
  (* Re-read the whole op through the format layout so that every field,
     including the prefix we peeked at, lands in the table. *)
  Bits.Reader.seek r start;
  let tbl = Hashtbl.create 17 in
  List.iter
    (fun fd ->
      Hashtbl.replace tbl fd.Format_spec.fname
        (Bits.Reader.read_bits r ~width:fd.Format_spec.width))
    layout;
  Op.of_fields (Opcode.kind opcode) (Hashtbl.find tbl)

let encode_ops ops =
  let w = Bits.Writer.create ~initial_bytes:(5 * List.length ops + 1) () in
  List.iter (encode w) ops;
  Bits.Writer.contents w

let decode_ops ~count s =
  let r = Bits.Reader.of_string s in
  List.init count (fun _ -> decode r)

let of_int v =
  let w = Bits.Writer.create ~initial_bytes:5 () in
  Bits.Writer.add_bits w ~width:Format_spec.op_bits v;
  decode (Bits.Reader.of_string (Bits.Writer.contents w))

(* The opcode-point table behind [normalize] and [point_kind].  Every
   format starts T(1) S(1) OPT(2) OPCODE(5), so bits 37..31 of a 40-bit
   image hold the 7-bit OPT|OPCODE point that selects the format.  Per
   point: the format, and the mask that keeps every field except the
   reserved ones — exactly the bits [to_int (of_int v)] carries over (0
   for an undefined point).  Built eagerly at module initialization so
   that no lazy state is ever forced from a worker domain. *)
let point_shift = Format_spec.op_bits - Format_spec.prefix_bits

let point_kinds = Array.make 128 None
let point_masks = Array.make 128 0

let () =
  List.iter
    (fun oc ->
      let p =
        (Opcode.optype_code (Opcode.optype oc) lsl 5) lor Opcode.code oc
      in
      let kind = Opcode.kind oc in
      point_kinds.(p) <- Some kind;
      point_masks.(p) <-
        List.fold_left
          (fun m fd ->
            let keep =
              if Format_spec.is_reserved fd.Format_spec.fname then 0
              else (1 lsl fd.Format_spec.width) - 1
            in
            (m lsl fd.Format_spec.width) lor keep)
          0 (Format_spec.layout kind))
    Opcode.all

let point_kind p = if p < 0 || p > 127 then None else point_kinds.(p)

let normalize v =
  if v < 0 || v lsr Format_spec.op_bits <> 0 then
    invalid_arg "Bits.Writer.add_bits: value does not fit width";
  let p = (v lsr point_shift) land 0x7f in
  let m = Array.unsafe_get point_masks p in
  if m = 0 then
    invalid_arg
      (Printf.sprintf "Encode.decode: undefined opcode point %d/%d" (p lsr 5)
         (p land 31))
  else v land m
