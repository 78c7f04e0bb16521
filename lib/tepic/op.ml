type body =
  | Alu of {
      opcode : Opcode.t;
      src1 : int;
      src2 : int;
      bhwx : int;
      dest : int;
      l1 : bool;
    }
  | Cmpp of {
      opcode : Opcode.t;
      src1 : int;
      src2 : int;
      bhwx : int;
      d1 : int;
      dest : int;
      l1 : bool;
    }
  | Ldi of { imm : int; dest : int; l1 : bool }
  | Fpu of {
      opcode : Opcode.t;
      src1 : int;
      src2 : int;
      sd : bool;
      tss : int;
      dest : int;
      l1 : bool;
    }
  | Load of {
      opcode : Opcode.t;
      src1 : int;
      bhwx : int;
      scs : int;
      tcs : int;
      lat : int;
      dest : int;
    }
  | Store of {
      opcode : Opcode.t;
      src1 : int;
      src2 : int;
      bhwx : int;
      tcs : int;
      l1 : bool;
    }
  | Branch of { opcode : Opcode.t; src1 : int; counter : int; target : int }

type t = { tail : bool; spec : bool; pred : int; body : body }

let check_reg name i =
  if i < 0 || i >= Reg.file_size then
    invalid_arg (Printf.sprintf "Op: register field %s out of range: %d" name i)

let check_width name width v =
  if v < 0 || v lsr width <> 0 then
    invalid_arg (Printf.sprintf "Op: field %s does not fit %d bits: %d" name width v)

let check_kind expected opcode =
  if Opcode.kind opcode <> expected then
    invalid_arg
      (Printf.sprintf "Op: opcode %s has the wrong format" (Opcode.mnemonic opcode))

let mk ?(spec = false) ?(pred = 0) body =
  check_reg "PRED" pred;
  { tail = false; spec; pred; body }

let alu ?spec ?pred ?(bhwx = 2) ?(l1 = false) ~opcode ~src1 ~src2 ~dest () =
  check_kind K_alu opcode;
  check_reg "SRC1" src1;
  check_reg "SRC2" src2;
  check_reg "DEST" dest;
  check_width "BHWX" 2 bhwx;
  mk ?spec ?pred (Alu { opcode; src1; src2; bhwx; dest; l1 })

let cmpp ?spec ?pred ?(bhwx = 2) ?(d1 = 0) ?(l1 = false) ~opcode ~src1 ~src2
    ~dest () =
  check_kind K_cmpp opcode;
  check_reg "SRC1" src1;
  check_reg "SRC2" src2;
  check_reg "DEST" dest;
  check_width "BHWX" 2 bhwx;
  check_width "D1" 3 d1;
  mk ?spec ?pred (Cmpp { opcode; src1; src2; bhwx; d1; dest; l1 })

let ldi ?spec ?pred ?(l1 = false) ~imm ~dest () =
  check_width "IMM" 20 imm;
  check_reg "DEST" dest;
  mk ?spec ?pred (Ldi { imm; dest; l1 })

let fpu ?spec ?pred ?(sd = false) ?(tss = 0) ?(l1 = false) ~opcode ~src1 ~src2
    ~dest () =
  check_kind K_fpu opcode;
  check_reg "SRC1" src1;
  check_reg "SRC2" src2;
  check_reg "DEST" dest;
  check_width "TSS" 3 tss;
  mk ?spec ?pred (Fpu { opcode; src1; src2; sd; tss; dest; l1 })

let load ?spec ?pred ?(bhwx = 2) ?(scs = 0) ?(tcs = 0) ?(lat = 2) ~opcode ~src1
    ~dest () =
  check_kind K_load opcode;
  check_reg "SRC1" src1;
  check_reg "DEST" dest;
  check_width "BHWX" 2 bhwx;
  check_width "SCS" 2 scs;
  check_width "TCS" 2 tcs;
  check_width "LAT" 5 lat;
  mk ?spec ?pred (Load { opcode; src1; bhwx; scs; tcs; lat; dest })

let store ?spec ?pred ?(bhwx = 2) ?(tcs = 0) ~opcode ~src1 ~src2 () =
  check_kind K_store opcode;
  check_reg "SRC1" src1;
  check_reg "SRC2" src2;
  check_width "BHWX" 2 bhwx;
  check_width "TCS" 2 tcs;
  mk ?spec ?pred (Store { opcode; src1; src2; bhwx; tcs; l1 = false })

let branch ?spec ?pred ?(src1 = 0) ?(counter = 0) ~opcode ~target () =
  check_kind K_branch opcode;
  check_reg "SRC1" src1;
  check_reg "COUNTER" counter;
  check_width "TARGET" 16 target;
  mk ?spec ?pred (Branch { opcode; src1; counter; target })

let opcode op =
  match op.body with
  | Alu { opcode; _ }
  | Cmpp { opcode; _ }
  | Fpu { opcode; _ }
  | Load { opcode; _ }
  | Store { opcode; _ }
  | Branch { opcode; _ } ->
      opcode
  | Ldi _ -> Opcode.LDI

let kind op = Opcode.kind (opcode op)
let is_memory op = Opcode.is_memory (opcode op)
let is_branch op = Opcode.is_branch (opcode op)
let is_conditional_branch op = Opcode.is_conditional (opcode op)

let branch_target op =
  match op.body with
  | Branch { opcode = RET; _ } -> None
  | Branch { target; _ } -> Some target
  | _ -> None

let with_tail tail op = { op with tail }

let with_target target op =
  match op.body with
  | Branch b ->
      check_width "TARGET" 16 target;
      { op with body = Branch { b with target } }
  | _ -> invalid_arg "Op.with_target: not a branch"

let bool_bit b = if b then 1 else 0

let field_value op name =
  match (name, op.body) with
  | "T", _ -> bool_bit op.tail
  | "S", _ -> bool_bit op.spec
  | "OPT", _ -> Opcode.optype_code (Opcode.optype (opcode op))
  | "OPCODE", _ -> Opcode.code (opcode op)
  | "PRED", _ -> op.pred
  | ("RES" | "RES2" | "RSV"), _ -> 0
  | "SRC1", Alu { src1; _ }
  | "SRC1", Cmpp { src1; _ }
  | "SRC1", Fpu { src1; _ }
  | "SRC1", Load { src1; _ }
  | "SRC1", Store { src1; _ }
  | "SRC1", Branch { src1; _ } ->
      src1
  | "SRC2", Alu { src2; _ }
  | "SRC2", Cmpp { src2; _ }
  | "SRC2", Fpu { src2; _ }
  | "SRC2", Store { src2; _ } ->
      src2
  | "DEST", Alu { dest; _ }
  | "DEST", Cmpp { dest; _ }
  | "DEST", Ldi { dest; _ }
  | "DEST", Fpu { dest; _ }
  | "DEST", Load { dest; _ } ->
      dest
  | "BHWX", Alu { bhwx; _ }
  | "BHWX", Cmpp { bhwx; _ }
  | "BHWX", Load { bhwx; _ }
  | "BHWX", Store { bhwx; _ } ->
      bhwx
  | "L1", Alu { l1; _ }
  | "L1", Cmpp { l1; _ }
  | "L1", Ldi { l1; _ }
  | "L1", Fpu { l1; _ }
  | "L1", Store { l1; _ } ->
      bool_bit l1
  | "D1", Cmpp { d1; _ } -> d1
  | "IMM", Ldi { imm; _ } -> imm
  | "SD", Fpu { sd; _ } -> bool_bit sd
  | "TSS", Fpu { tss; _ } -> tss
  | "SCS", Load { scs; _ } -> scs
  | "TCS", Load { tcs; _ } | "TCS", Store { tcs; _ } -> tcs
  | "LAT", Load { lat; _ } -> lat
  | "COUNTER", Branch { counter; _ } -> counter
  | "TARGET", Branch { target; _ } -> target
  | _ -> raise Not_found

let fields op =
  let layout = Format_spec.layout (kind op) in
  List.map (fun fd -> (fd, field_value op fd.Format_spec.fname)) layout

let of_fields kind lookup =
  let opt = Opcode.optype_of_code (lookup "OPT") in
  let opcode =
    match Opcode.of_code opt (lookup "OPCODE") with
    | Some oc -> oc
    | None -> invalid_arg "Op.of_fields: unknown opcode"
  in
  if Opcode.kind opcode <> kind then
    invalid_arg "Op.of_fields: opcode/format mismatch";
  let body =
    match kind with
    | Opcode.K_alu ->
        Alu
          {
            opcode;
            src1 = lookup "SRC1";
            src2 = lookup "SRC2";
            bhwx = lookup "BHWX";
            dest = lookup "DEST";
            l1 = lookup "L1" = 1;
          }
    | K_cmpp ->
        Cmpp
          {
            opcode;
            src1 = lookup "SRC1";
            src2 = lookup "SRC2";
            bhwx = lookup "BHWX";
            d1 = lookup "D1";
            dest = lookup "DEST";
            l1 = lookup "L1" = 1;
          }
    | K_ldi ->
        Ldi { imm = lookup "IMM"; dest = lookup "DEST"; l1 = lookup "L1" = 1 }
    | K_fpu ->
        Fpu
          {
            opcode;
            src1 = lookup "SRC1";
            src2 = lookup "SRC2";
            sd = lookup "SD" = 1;
            tss = lookup "TSS";
            dest = lookup "DEST";
            l1 = lookup "L1" = 1;
          }
    | K_load ->
        Load
          {
            opcode;
            src1 = lookup "SRC1";
            bhwx = lookup "BHWX";
            scs = lookup "SCS";
            tcs = lookup "TCS";
            lat = lookup "LAT";
            dest = lookup "DEST";
          }
    | K_store ->
        Store
          {
            opcode;
            src1 = lookup "SRC1";
            src2 = lookup "SRC2";
            bhwx = lookup "BHWX";
            tcs = lookup "TCS";
            l1 = lookup "L1" = 1;
          }
    | K_branch ->
        Branch
          {
            opcode;
            src1 = lookup "SRC1";
            counter = lookup "COUNTER";
            target = lookup "TARGET";
          }
  in
  { tail = lookup "T" = 1; spec = lookup "S" = 1; pred = lookup "PRED"; body }

let regs op =
  let pred = if op.pred <> 0 then [ Reg.pr op.pred ] else [] in
  let body =
    match op.body with
    | Alu { src1; src2; dest; _ } -> [ Reg.gpr src1; Reg.gpr src2; Reg.gpr dest ]
    | Cmpp { src1; src2; dest; _ } ->
        [ Reg.gpr src1; Reg.gpr src2; Reg.pr dest ]
    | Ldi { dest; _ } -> [ Reg.gpr dest ]
    (* Conversions cross register files: ITOF reads a GPR, FTOI writes
       one. *)
    | Fpu { opcode = Opcode.ITOF; src1; src2; dest; _ } ->
        [ Reg.gpr src1; Reg.fpr src2; Reg.fpr dest ]
    | Fpu { opcode = Opcode.FTOI; src1; src2; dest; _ } ->
        [ Reg.fpr src1; Reg.fpr src2; Reg.gpr dest ]
    | Fpu { src1; src2; dest; _ } -> [ Reg.fpr src1; Reg.fpr src2; Reg.fpr dest ]
    (* The TCS field selects the target register file of a memory op
       (PlayDoh-style): TCS = 1 moves floating-point data. *)
    | Load { src1; dest; tcs; _ } ->
        [ Reg.gpr src1; (if tcs = 1 then Reg.fpr dest else Reg.gpr dest) ]
    | Store { src1; src2; tcs; _ } ->
        [ Reg.gpr src1; (if tcs = 1 then Reg.fpr src2 else Reg.gpr src2) ]
    | Branch { src1; counter; _ } -> [ Reg.gpr src1; Reg.gpr counter ]
  in
  pred @ body

let equal (a : t) b = a = b
let equal_list = List.equal equal

let pp ppf op =
  let open Format in
  let pred_prefix () = if op.pred <> 0 then fprintf ppf "(p%d) " op.pred in
  pred_prefix ();
  (match op.body with
  | Alu { opcode; src1; src2; dest; _ } ->
      fprintf ppf "%s r%d, r%d, r%d" (Opcode.mnemonic opcode) dest src1 src2
  | Cmpp { opcode; src1; src2; dest; _ } ->
      fprintf ppf "%s p%d, r%d, r%d" (Opcode.mnemonic opcode) dest src1 src2
  | Ldi { imm; dest; _ } -> fprintf ppf "ldi r%d, #%d" dest imm
  | Fpu { opcode; src1; src2; dest; _ } ->
      fprintf ppf "%s f%d, f%d, f%d" (Opcode.mnemonic opcode) dest src1 src2
  | Load { opcode; src1; dest; lat; _ } ->
      fprintf ppf "%s r%d, [r%d] (lat %d)" (Opcode.mnemonic opcode) dest src1 lat
  | Store { opcode; src1; src2; _ } ->
      fprintf ppf "%s [r%d], r%d" (Opcode.mnemonic opcode) src1 src2
  | Branch { opcode; target; _ } ->
      fprintf ppf "%s bb%d" (Opcode.mnemonic opcode) target);
  if op.tail then fprintf ppf " ;;"

let to_string op = Format.asprintf "%a" pp op
