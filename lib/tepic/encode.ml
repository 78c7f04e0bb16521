let encode w op =
  List.iter
    (fun (fd, v) -> Bits.Writer.add_bits w ~width:fd.Format_spec.width v)
    (Op.fields op)

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

let to_int op =
  List.fold_left
    (fun acc (fd, v) -> (acc lsl fd.Format_spec.width) lor v)
    0 (Op.fields op)

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
