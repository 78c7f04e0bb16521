type dense_map = {
  width : int;
  to_new : (int, int) Hashtbl.t;
  to_old : int array;
}

type spec = {
  opcode_bits : int;
  spec_bit : bool;
  opcode_maps : (Tepic.Opcode.optype * dense_map) list;
  reg_maps : (Tepic.Reg.cls * dense_map) list;
  field_maps : (string * dense_map) list;
  widths : (Tepic.Opcode.kind * int) list;
}

(* A dense map over the set of values actually used.  A single-valued field
   costs zero bits: the decoder simply emits the constant. *)
let dense_of_values values =
  let sorted = List.sort_uniq compare values in
  let to_old = Array.of_list sorted in
  let n = Array.length to_old in
  let to_new = Hashtbl.create (2 * n) in
  Array.iteri (fun i v -> Hashtbl.replace to_new v i) to_old;
  let width = if n <= 1 then 0 else Bits.bits_needed n in
  { width; to_new; to_old }

let map_new m v =
  match Hashtbl.find_opt m.to_new v with
  | Some i -> i
  | None -> invalid_arg "Tailored: value outside the tailored map"

let map_old m i =
  if i < 0 || i >= Array.length m.to_old then
    invalid_arg "Tailored: dense index out of range";
  m.to_old.(i)

(* Fields dropped entirely from the tailored encoding. *)
let is_reserved = Tepic.Format_spec.is_reserved

(* Raw (non-dictionary) fields: values pass through at reduced width.
   Branch targets must stay raw so the linker can still patch them
   (paper §3.3 leaves "enough space for later plug-in of new targets");
   immediates get a program-specific constant pool instead — an indexed,
   fixed-width namespace, tailoring in the same sense as register
   renumbering. *)
let is_raw = function "TARGET" -> true | _ -> false

(* Register fields, class decided by opcode (conversions cross files) and,
   for memory ops, by the TCS target-file specifier read earlier in the
   layout. *)
let reg_class_of_field (opcode : Tepic.Opcode.t) ~tcs fname =
  match (Tepic.Opcode.kind opcode, fname) with
  | (Tepic.Opcode.K_alu | K_cmpp), ("SRC1" | "SRC2") -> Some Tepic.Reg.Gpr
  | Tepic.Opcode.K_alu, "DEST" -> Some Tepic.Reg.Gpr
  | Tepic.Opcode.K_cmpp, "DEST" -> Some Tepic.Reg.Pr
  | Tepic.Opcode.K_ldi, "DEST" -> Some Tepic.Reg.Gpr
  | Tepic.Opcode.K_fpu, "SRC1" ->
      Some (if opcode = Tepic.Opcode.ITOF then Tepic.Reg.Gpr else Tepic.Reg.Fpr)
  | Tepic.Opcode.K_fpu, "SRC2" -> Some Tepic.Reg.Fpr
  | Tepic.Opcode.K_fpu, "DEST" ->
      Some (if opcode = Tepic.Opcode.FTOI then Tepic.Reg.Gpr else Tepic.Reg.Fpr)
  | Tepic.Opcode.K_load, "SRC1" -> Some Tepic.Reg.Gpr
  | Tepic.Opcode.K_load, "DEST" ->
      Some (if tcs = 1 then Tepic.Reg.Fpr else Tepic.Reg.Gpr)
  | Tepic.Opcode.K_store, "SRC1" -> Some Tepic.Reg.Gpr
  | Tepic.Opcode.K_store, "SRC2" ->
      Some (if tcs = 1 then Tepic.Reg.Fpr else Tepic.Reg.Gpr)
  | Tepic.Opcode.K_branch, ("SRC1" | "COUNTER") -> Some Tepic.Reg.Gpr
  | _, "PRED" -> Some Tepic.Reg.Pr
  | _ -> None

(* Classes a field of [kind] can hold, independent of the concrete opcode —
   fixes the field's width (the max over candidate class maps). *)
let reg_classes_of_field (kind : Tepic.Opcode.kind) fname :
    Tepic.Reg.cls list =
  match (kind, fname) with
  | (Tepic.Opcode.K_alu | K_cmpp), ("SRC1" | "SRC2") -> [ Tepic.Reg.Gpr ]
  | Tepic.Opcode.K_alu, "DEST" | Tepic.Opcode.K_ldi, "DEST" -> [ Tepic.Reg.Gpr ]
  | Tepic.Opcode.K_cmpp, "DEST" -> [ Tepic.Reg.Pr ]
  | Tepic.Opcode.K_fpu, ("SRC1" | "DEST") -> [ Tepic.Reg.Gpr; Tepic.Reg.Fpr ]
  | Tepic.Opcode.K_fpu, "SRC2" -> [ Tepic.Reg.Fpr ]
  | Tepic.Opcode.K_load, "SRC1" | Tepic.Opcode.K_store, "SRC1" ->
      [ Tepic.Reg.Gpr ]
  | Tepic.Opcode.K_load, "DEST" | Tepic.Opcode.K_store, "SRC2" ->
      [ Tepic.Reg.Gpr; Tepic.Reg.Fpr ]
  | Tepic.Opcode.K_branch, ("SRC1" | "COUNTER") -> [ Tepic.Reg.Gpr ]
  | _, "PRED" -> [ Tepic.Reg.Pr ]
  | _ -> []

let spec_of_program program =
  (* Collect used values. *)
  let opcode_vals : (Tepic.Opcode.optype, int list ref) Hashtbl.t =
    Hashtbl.create 7
  in
  let reg_vals : (Tepic.Reg.cls, int list ref) Hashtbl.t = Hashtbl.create 7 in
  let field_vals : (string, int list ref) Hashtbl.t = Hashtbl.create 17 in
  let raw_max : (string, int ref) Hashtbl.t = Hashtbl.create 7 in
  let bucket tbl key v =
    match Hashtbl.find_opt tbl key with
    | Some r -> r := v :: !r
    | None -> Hashtbl.add tbl key (ref [ v ])
  in
  let any_spec = ref false in
  Tepic.Program.iter_ops
    (fun op ->
      if op.Tepic.Op.spec then any_spec := true;
      let opcode = Tepic.Op.opcode op in
      bucket opcode_vals (Tepic.Opcode.optype opcode) (Tepic.Opcode.code opcode);
      List.iter
        (fun (r : Tepic.Reg.t) -> bucket reg_vals r.Tepic.Reg.cls r.Tepic.Reg.index)
        (Tepic.Op.regs op);
      (* Predicate 0 must stay representable: unpredicated ops use it. *)
      bucket reg_vals Tepic.Reg.Pr 0;
      let tcs = try Tepic.Op.field_value op "TCS" with Not_found -> 0 in
      List.iter
        (fun (fd, v) ->
          let name = fd.Tepic.Format_spec.fname in
          if is_reserved name then ()
          else if is_raw name then begin
            match Hashtbl.find_opt raw_max name with
            | Some r -> r := max !r v
            | None -> Hashtbl.add raw_max name (ref v)
          end
          else if
            name = "T" || name = "S" || name = "OPT" || name = "OPCODE"
            || reg_class_of_field opcode ~tcs name <> None
          then ()
          else bucket field_vals name v)
        (Tepic.Op.fields op))
    program;
  let opcode_maps =
    Hashtbl.fold
      (fun ty r acc -> (ty, dense_of_values !r) :: acc)
      opcode_vals []
    |> List.sort compare
  in
  let opcode_bits =
    List.fold_left (fun a (_, m) -> max a m.width) 0 opcode_maps
  in
  let reg_maps =
    Hashtbl.fold (fun c r acc -> (c, dense_of_values !r) :: acc) reg_vals []
    |> List.sort compare
  in
  let field_maps =
    Hashtbl.fold (fun n r acc -> (n, dense_of_values !r) :: acc) field_vals []
    |> List.sort compare
  in
  let field_maps =
    (* Raw fields become identity "maps" encoded as width-only entries:
       represent them as dense maps over [0, max] without a table by
       storing an empty table and the raw width. *)
    Hashtbl.fold
      (fun n r acc ->
        ( n,
          {
            width = Bits.bits_needed (!r + 1);
            to_new = Hashtbl.create 1;
            to_old = [||];
          } )
        :: acc)
      raw_max field_maps
    |> List.sort compare
  in
  let spec0 =
    {
      opcode_bits;
      spec_bit = !any_spec;
      opcode_maps;
      reg_maps;
      field_maps;
      widths = [];
    }
  in
  spec0

let reg_map spec c =
  match List.assoc_opt c spec.reg_maps with
  | Some m -> m
  | None -> { width = 0; to_new = Hashtbl.create 1; to_old = [| 0 |] }

let field_map spec name =
  match List.assoc_opt name spec.field_maps with
  | Some m -> m
  | None -> { width = 0; to_new = Hashtbl.create 1; to_old = [| 0 |] }

(* Tailored width of a non-prefix field in format [kind]. *)
let field_width spec kind (fd : Tepic.Format_spec.field) =
  let name = fd.Tepic.Format_spec.fname in
  if is_reserved name then 0
  else
    match reg_classes_of_field kind name with
    | [] -> (field_map spec name).width
    | classes ->
        List.fold_left (fun a c -> max a (reg_map spec c).width) 0 classes

let header_bits spec = 1 + (if spec.spec_bit then 1 else 0) + 2 + spec.opcode_bits

let op_bits spec kind =
  List.fold_left
    (fun a fd ->
      if List.mem fd.Tepic.Format_spec.fname [ "T"; "S"; "OPT"; "OPCODE" ] then a
      else a + field_width spec kind fd)
    (header_bits spec)
    (Tepic.Format_spec.layout kind)

let finalize_spec spec =
  {
    spec with
    widths = List.map (fun k -> (k, op_bits spec k)) Tepic.Format_spec.kinds;
  }

let encode_op spec w (op : Tepic.Op.t) =
  let opcode = Tepic.Op.opcode op in
  let kind = Tepic.Opcode.kind opcode in
  let ty = Tepic.Opcode.optype opcode in
  Bits.Writer.add_bits w ~width:1 (if op.Tepic.Op.tail then 1 else 0);
  if spec.spec_bit then
    Bits.Writer.add_bits w ~width:1 (if op.Tepic.Op.spec then 1 else 0);
  Bits.Writer.add_bits w ~width:2 (Tepic.Opcode.optype_code ty);
  let omap = List.assoc ty spec.opcode_maps in
  Bits.Writer.add_bits w ~width:spec.opcode_bits
    (map_new omap (Tepic.Opcode.code opcode));
  let tcs = try Tepic.Op.field_value op "TCS" with Not_found -> 0 in
  List.iter
    (fun (fd, v) ->
      let name = fd.Tepic.Format_spec.fname in
      if List.mem name [ "T"; "S"; "OPT"; "OPCODE" ] || is_reserved name then ()
      else begin
        let width = field_width spec kind fd in
        let encoded =
          match reg_class_of_field opcode ~tcs name with
          | Some c -> map_new (reg_map spec c) v
          | None -> if is_raw name then v else map_new (field_map spec name) v
        in
        if width > 0 then Bits.Writer.add_bits w ~width encoded
        else if encoded <> 0 then
          invalid_arg "Tailored.encode_op: nonzero value in zero-width field"
      end)
    (Tepic.Op.fields op)

let decode_op spec r =
  let tail = Bits.Reader.read_bits r ~width:1 = 1 in
  let sp = if spec.spec_bit then Bits.Reader.read_bits r ~width:1 = 1 else false in
  let ty = Tepic.Opcode.optype_of_code (Bits.Reader.read_bits r ~width:2) in
  let omap = List.assoc ty spec.opcode_maps in
  let code = map_old omap (Bits.Reader.read_bits r ~width:spec.opcode_bits) in
  let opcode =
    match Tepic.Opcode.of_code ty code with
    | Some oc -> oc
    | None -> invalid_arg "Tailored.decode_op: bad opcode"
  in
  let kind = Tepic.Opcode.kind opcode in
  let tbl = Hashtbl.create 17 in
  Hashtbl.replace tbl "T" (if tail then 1 else 0);
  Hashtbl.replace tbl "S" (if sp then 1 else 0);
  Hashtbl.replace tbl "OPT" (Tepic.Opcode.optype_code ty);
  Hashtbl.replace tbl "OPCODE" code;
  (* Pass 1: pull every field's raw bits (widths depend only on the
     format).  A hardware decoder sees all bits at once; sequentially we
     must buffer them because a field's register file can depend on a
     later field (the store format puts SRC2 before TCS). *)
  let raws =
    List.filter_map
      (fun fd ->
        let name = fd.Tepic.Format_spec.fname in
        if List.mem name [ "T"; "S"; "OPT"; "OPCODE" ] then None
        else if is_reserved name then Some (name, 0)
        else begin
          let width = field_width spec kind fd in
          Some (name, if width > 0 then Bits.Reader.read_bits r ~width else 0)
        end)
      (Tepic.Format_spec.layout kind)
  in
  (* Resolve TCS first: it selects register files. *)
  let tcs =
    match List.assoc_opt "TCS" raws with
    | Some raw -> map_old (field_map spec "TCS") raw
    | None -> 0
  in
  List.iter
    (fun (name, raw) ->
      let v =
        if is_reserved name then 0
        else
          match reg_class_of_field opcode ~tcs name with
          | Some c -> map_old (reg_map spec c) raw
          | None ->
              if is_raw name then raw else map_old (field_map spec name) raw
      in
      Hashtbl.replace tbl name v)
    raws;
  Tepic.Op.of_fields kind (Hashtbl.find tbl)

(* The transcoder: [decode_op] straight to the 40-bit baseline word.  Per
   OPT|OPCODE point, a plan of the op's non-prefix, non-reserved fields in
   layout order — tailored width, position in the baseline word, and how
   the value maps back.  Reserved fields stay zero in the word. *)
type field_map_back =
  | Raw  (* passes through at reduced width *)
  | Mapped of dense_map  (* a field map, or the map of a fixed register class *)
  | By_tcs of { tcs1 : dense_map; other : dense_map }
      (* register file chosen by the op's TCS value *)

type field_plan = { width : int; shift : int; back : field_map_back }

type op_plan = {
  fields : field_plan array;
  tcs_slot : int;  (* index of TCS in [fields], or -1 *)
}

let op_plan spec (opcode : Tepic.Opcode.t) =
  let kind = Tepic.Opcode.kind opcode in
  let fields = ref [] and shift = ref Tepic.Format_spec.op_bits in
  let tcs_slot = ref (-1) in
  List.iter
    (fun fd ->
      let name = fd.Tepic.Format_spec.fname in
      shift := !shift - fd.Tepic.Format_spec.width;
      if
        not
          (List.mem name [ "T"; "S"; "OPT"; "OPCODE" ] || is_reserved name)
      then begin
        if name = "TCS" then tcs_slot := List.length !fields;
        let back =
          match
            ( reg_class_of_field opcode ~tcs:1 name,
              reg_class_of_field opcode ~tcs:0 name )
          with
          | Some c1, Some c0 when c1 <> c0 ->
              By_tcs { tcs1 = reg_map spec c1; other = reg_map spec c0 }
          | Some c, _ -> Mapped (reg_map spec c)
          | None, _ ->
              if is_raw name then Raw else Mapped (field_map spec name)
        in
        fields :=
          { width = field_width spec kind fd; shift = !shift; back } :: !fields
      end)
    (Tepic.Format_spec.layout kind);
  { fields = Array.of_list (List.rev !fields); tcs_slot = !tcs_slot }

(* [transcode_op] reads and raises exactly like [decode_op]: the header,
   then every field's raw bits (into [buf], one slot per plan field), then
   TCS, then each field's map in layout order. *)
let transcoder spec =
  let omaps =
    Array.init 4 (fun ty ->
        List.assoc_opt (Tepic.Opcode.optype_of_code ty) spec.opcode_maps)
  in
  let plans =
    Array.init 128 (fun p ->
        match Tepic.Encode.point_kind p with
        | None -> None
        | Some _ ->
            Option.map (op_plan spec)
              (Tepic.Opcode.of_code
                 (Tepic.Opcode.optype_of_code (p lsr 5))
                 (p land 31)))
  in
  let tcs_map = field_map spec "TCS" in
  let max_fields =
    Array.fold_left
      (fun a p ->
        match p with Some p -> max a (Array.length p.fields) | None -> a)
      0 plans
  in
  let transcode_op r w buf =
    let tail = Bits.Reader.read_bits r ~width:1 in
    let sp = if spec.spec_bit then Bits.Reader.read_bits r ~width:1 else 0 in
    let ty = Bits.Reader.read_bits r ~width:2 in
    let omap = match omaps.(ty) with Some m -> m | None -> raise Not_found in
    let code = map_old omap (Bits.Reader.read_bits r ~width:spec.opcode_bits) in
    match plans.((ty lsl 5) lor code) with
    | None -> invalid_arg "Tailored.decode_op: bad opcode"
    | Some plan ->
        let fields = plan.fields in
        for j = 0 to Array.length fields - 1 do
          let width = fields.(j).width in
          buf.(j) <- (if width > 0 then Bits.Reader.read_bits r ~width else 0)
        done;
        let tcs =
          if plan.tcs_slot >= 0 then map_old tcs_map buf.(plan.tcs_slot) else 0
        in
        (* T, S, OPT and OPCODE: the 9-bit prefix atop the 40-bit word. *)
        let word =
          ref ((tail lsl 39) lor (sp lsl 38) lor (ty lsl 36) lor (code lsl 31))
        in
        for j = 0 to Array.length fields - 1 do
          let f = fields.(j) in
          let v =
            match f.back with
            | Raw -> buf.(j)
            | Mapped m -> map_old m buf.(j)
            | By_tcs { tcs1; other } ->
                map_old (if tcs = 1 then tcs1 else other) buf.(j)
          in
          word := !word lor (v lsl f.shift)
        done;
        Bits.Writer.add_bits w ~width:Tepic.Format_spec.op_bits !word
  in
  fun counts r w i ->
    let buf = Array.make max_fields 0 in
    for _ = 1 to counts.(i) do
      transcode_op r w buf
    done

let build_with_spec program =
  let spec = finalize_spec (spec_of_program program) in
  let image, offsets, sizes =
    Scheme.build_blocks program (fun w ops -> List.iter (encode_op spec w) ops)
  in
  let counts =
    Array.map
      (fun b -> Tepic.Program.block_num_ops b)
      program.Tepic.Program.blocks
  in
  let decode_payload r i =
    List.init counts.(i) (fun _ -> decode_op spec r)
  in
  let transcode_payload = transcoder spec counts in
  (* The tailored "table" cost is the PLA's value maps: every dense map
     entry stores its original value. *)
  let map_bits m =
    Array.fold_left (fun a v -> a + max 1 (Bits.bits_needed (v + 1))) 0 m.to_old
  in
  let table_bits =
    List.fold_left (fun a (_, m) -> a + map_bits m) 0 spec.reg_maps
    + List.fold_left (fun a (_, m) -> a + map_bits m) 0 spec.opcode_maps
    + List.fold_left (fun a (_, m) -> a + map_bits m) 0 spec.field_maps
  in
  ( {
      Scheme.name = "tailored";
      image;
      code_bits = 8 * String.length image;
      table_bits;
      block_offset_bits = offsets;
      block_bits = sizes;
      frame = Scheme.no_frame;
      decoder =
        { dict_entries = 0; max_code_bits = 0; entry_bits = 0; transistors = 0 };
      books = [];
      model =
        (let widths = List.map snd spec.widths in
         [
           Scheme.Fixed_bits
             {
               label = "tailored-op";
               min_bits = List.fold_left min max_int widths;
               max_bits = List.fold_left max 0 widths;
             };
         ]);
      decode_payload;
      transcode_payload;
    },
    spec )

let build program = fst (build_with_spec program)
