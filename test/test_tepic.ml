(* TEPIC ISA tests: formats, opcodes, op construction, baseline encoding,
   MOPs, programs and field streams. *)

let check = Alcotest.(check int)

(* --- Format_spec (Table 2 transcription) --- *)

let test_format_widths () =
  List.iter
    (fun k ->
      let total =
        List.fold_left
          (fun a f -> a + f.Tepic.Format_spec.width)
          0
          (Tepic.Format_spec.layout k)
      in
      check (Tepic.Format_spec.kind_to_string k) 40 total)
    Tepic.Format_spec.kinds

let test_format_prefix () =
  check "prefix bits" 9 Tepic.Format_spec.prefix_bits;
  List.iter
    (fun k ->
      let names =
        List.map
          (fun f -> f.Tepic.Format_spec.fname)
          (Tepic.Format_spec.layout k)
      in
      Alcotest.(check (list string))
        "every format starts with T S OPT OPCODE"
        [ "T"; "S"; "OPT"; "OPCODE" ]
        (List.filteri (fun i _ -> i < 4) names))
    Tepic.Format_spec.kinds

(* --- Opcode --- *)

let test_opcode_bijection () =
  List.iter
    (fun op ->
      let ty = Tepic.Opcode.optype op in
      let code = Tepic.Opcode.code op in
      Alcotest.(check bool)
        (Tepic.Opcode.mnemonic op) true
        (Tepic.Opcode.of_code ty code = Some op))
    Tepic.Opcode.all

(* The lookup tables against a scan of [Opcode.table], the list they are
   built from: every opcode's row, and [of_code] at every (type, code)
   point including the two just outside the 5-bit range. *)
let test_opcode_tables_vs_scan () =
  let open Tepic.Opcode in
  check "one row per opcode" (List.length all) (List.length table);
  List.iter
    (fun op ->
      let _, ty, c, k, m =
        List.find (fun (op', _, _, _, _) -> op' = op) table
      in
      let name = mnemonic op in
      Alcotest.(check bool) (name ^ " optype") true (optype op = ty);
      check (name ^ " code") c (code op);
      Alcotest.(check bool) (name ^ " kind") true (kind op = k);
      Alcotest.(check string) (name ^ " mnemonic") m name)
    all;
  List.iter
    (fun ty ->
      for c = -1 to 32 do
        let scan =
          List.find_map
            (fun (op, ty', c', _, _) ->
              if ty' = ty && c' = c then Some op else None)
            table
        in
        Alcotest.(check bool)
          (Printf.sprintf "of_code %d %d" (optype_code ty) c)
          true
          (of_code ty c = scan)
      done)
    [ Int; Float; Mem; Branch ]

let test_opcode_mnemonics_unique () =
  let names = List.map Tepic.Opcode.mnemonic Tepic.Opcode.all in
  check "unique mnemonics" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun (op, _, _, _, m) ->
      Alcotest.(check string) "mnemonic of the table row" m
        (Tepic.Opcode.mnemonic op))
    Tepic.Opcode.table

let test_opcode_classes () =
  Alcotest.(check bool) "LW is memory" true (Tepic.Opcode.is_memory Tepic.Opcode.LW);
  Alcotest.(check bool) "ADD not memory" false (Tepic.Opcode.is_memory Tepic.Opcode.ADD);
  Alcotest.(check bool) "BRCT conditional" true
    (Tepic.Opcode.is_conditional Tepic.Opcode.BRCT);
  Alcotest.(check bool) "BR unconditional" false
    (Tepic.Opcode.is_conditional Tepic.Opcode.BR);
  check "optype codes roundtrip" 3
    (Tepic.Opcode.optype_code (Tepic.Opcode.optype_of_code 3))

(* --- Op --- *)

let test_op_validation () =
  Alcotest.check_raises "register range"
    (Invalid_argument "Op: register field SRC1 out of range: 32") (fun () ->
      ignore (Tepic.Op.alu ~opcode:Tepic.Opcode.ADD ~src1:32 ~src2:0 ~dest:0 ()));
  Alcotest.check_raises "imm range"
    (Invalid_argument "Op: field IMM does not fit 20 bits: 1048576") (fun () ->
      ignore (Tepic.Op.ldi ~imm:(1 lsl 20) ~dest:0 ()));
  Alcotest.check_raises "wrong kind"
    (Invalid_argument "Op: opcode lw has the wrong format") (fun () ->
      ignore (Tepic.Op.alu ~opcode:Tepic.Opcode.LW ~src1:0 ~src2:0 ~dest:0 ()))

let test_op_fields_cover_layout () =
  let op = Tepic.Op.alu ~opcode:Tepic.Opcode.ADD ~src1:1 ~src2:2 ~dest:3 () in
  let fields = Tepic.Op.fields op in
  let layout = Tepic.Format_spec.layout Tepic.Opcode.K_alu in
  check "one value per field" (List.length layout) (List.length fields);
  List.iter2
    (fun fd (fd', v) ->
      Alcotest.(check string) "order" fd.Tepic.Format_spec.fname
        fd'.Tepic.Format_spec.fname;
      Alcotest.(check bool) "fits width" true (v lsr fd.Tepic.Format_spec.width = 0))
    layout fields

let test_branch_target () =
  let b = Tepic.Op.branch ~opcode:Tepic.Opcode.BR ~target:7 () in
  Alcotest.(check (option int)) "target" (Some 7) (Tepic.Op.branch_target b);
  let r = Tepic.Op.branch ~opcode:Tepic.Opcode.RET ~target:0 () in
  Alcotest.(check (option int)) "ret has none" None (Tepic.Op.branch_target r);
  let b' = Tepic.Op.with_target 9 b in
  Alcotest.(check (option int)) "retarget" (Some 9) (Tepic.Op.branch_target b')

let test_op_regs_classes () =
  let fpu = Tepic.Op.fpu ~opcode:Tepic.Opcode.FADD ~src1:1 ~src2:2 ~dest:3 () in
  Alcotest.(check bool) "fadd regs are FPR" true
    (List.for_all
       (fun (r : Tepic.Reg.t) -> r.Tepic.Reg.cls = Tepic.Reg.Fpr)
       (Tepic.Op.regs fpu));
  let itof = Tepic.Op.fpu ~opcode:Tepic.Opcode.ITOF ~src1:1 ~src2:2 ~dest:3 () in
  let classes = List.map (fun (r : Tepic.Reg.t) -> r.Tepic.Reg.cls) (Tepic.Op.regs itof) in
  Alcotest.(check bool) "itof reads GPR" true (List.mem Tepic.Reg.Gpr classes);
  let fp_load =
    Tepic.Op.load ~tcs:1 ~opcode:Tepic.Opcode.LW ~src1:1 ~dest:2 ()
  in
  Alcotest.(check bool) "tcs=1 load writes FPR" true
    (List.exists
       (fun (r : Tepic.Reg.t) -> r.Tepic.Reg.cls = Tepic.Reg.Fpr)
       (Tepic.Op.regs fp_load))

(* --- Encode --- *)

let prop_encode_roundtrip =
  QCheck.Test.make ~name:"baseline 40-bit encode/decode roundtrip" ~count:500
    (QCheck.make (Gen_ops.op ())) (fun op ->
      let w = Bits.Writer.create () in
      Tepic.Encode.encode w op;
      Bits.Writer.length w = 40
      && Tepic.Op.equal op (Tepic.Encode.decode (Bits.Reader.of_string (Bits.Writer.contents w))))

let prop_to_int_roundtrip =
  QCheck.Test.make ~name:"to_int/of_int roundtrip" ~count:500
    (QCheck.make (Gen_ops.op ())) (fun op ->
      Tepic.Op.equal op (Tepic.Encode.of_int (Tepic.Encode.to_int op)))

let test_encode_ops_sequence () =
  let ops =
    [
      Tepic.Op.alu ~opcode:Tepic.Opcode.ADD ~src1:1 ~src2:2 ~dest:3 ();
      Tepic.Op.ldi ~imm:77 ~dest:4 ();
      Tepic.Op.branch ~opcode:Tepic.Opcode.BR ~target:0 ();
    ]
  in
  let img = Tepic.Encode.encode_ops ops in
  check "5 bytes per op" 15 (String.length img);
  let back = Tepic.Encode.decode_ops ~count:3 img in
  List.iter2
    (fun a b -> Alcotest.(check bool) "same op" true (Tepic.Op.equal a b))
    ops back

(* --- Mop --- *)

let test_mop_tail_bits () =
  let ops =
    [ Tepic.Op.ldi ~imm:1 ~dest:1 (); Tepic.Op.ldi ~imm:2 ~dest:2 () ]
  in
  let m = Tepic.Mop.make ops in
  (match Tepic.Mop.ops m with
  | [ a; b ] ->
      Alcotest.(check bool) "first not tail" false a.Tepic.Op.tail;
      Alcotest.(check bool) "last is tail" true b.Tepic.Op.tail
  | _ -> Alcotest.fail "wrong op count");
  check "size" 2 (Tepic.Mop.size m);
  check "baseline bits" 80 (Tepic.Mop.bits_baseline m)

let test_mop_constraints () =
  let ldi i = Tepic.Op.ldi ~imm:0 ~dest:i () in
  Alcotest.check_raises "empty" (Invalid_argument "Mop.make: empty group")
    (fun () -> ignore (Tepic.Mop.make []));
  Alcotest.check_raises "too wide"
    (Invalid_argument "Mop.make: wider than issue width") (fun () ->
      ignore (Tepic.Mop.make (List.init 7 ldi)));
  let load i = Tepic.Op.load ~opcode:Tepic.Opcode.LW ~src1:0 ~dest:i () in
  Alcotest.check_raises "too many memory ops"
    (Invalid_argument "Mop.make: too many memory ops") (fun () ->
      ignore (Tepic.Mop.make [ load 1; load 2; load 3 ]));
  let br = Tepic.Op.branch ~opcode:Tepic.Opcode.BR ~target:0 () in
  Alcotest.check_raises "branch must be last"
    (Invalid_argument "Mop.make: branch must be the last op") (fun () ->
      ignore (Tepic.Mop.make [ br; ldi 1 ]));
  (* Branch in last slot is fine. *)
  Alcotest.(check bool) "branch last ok" true
    (Tepic.Mop.has_branch (Tepic.Mop.make [ ldi 1; br ]))

(* --- Program --- *)

let mk_block id ops = { Tepic.Program.id; mops = [ Tepic.Mop.make ops ] }

let test_program_validation () =
  let ldi = Tepic.Op.ldi ~imm:0 ~dest:0 () in
  Alcotest.check_raises "bad target"
    (Invalid_argument "Program.make: block 0 branches to 5") (fun () ->
      ignore
        (Tepic.Program.make ~name:"t"
           [ mk_block 0 [ Tepic.Op.branch ~opcode:Tepic.Opcode.BR ~target:5 () ] ]));
  Alcotest.check_raises "ids must be dense"
    (Invalid_argument "Program.make: block id out of order") (fun () ->
      ignore (Tepic.Program.make ~name:"t" [ mk_block 1 [ ldi ] ]))

let test_program_addresses () =
  let ldi = Tepic.Op.ldi ~imm:0 ~dest:0 () in
  let p =
    Tepic.Program.make ~name:"t"
      [
        mk_block 0 [ ldi; ldi; ldi ];
        mk_block 1 [ ldi ];
        mk_block 2 [ ldi; ldi ];
      ]
  in
  Alcotest.(check (array int)) "byte addresses" [| 0; 15; 20 |]
    (Tepic.Program.block_addresses p);
  check "total ops" 6 (Tepic.Program.num_ops p);
  check "baseline size" 30 (Tepic.Program.baseline_size_bytes p);
  check "image length" 30 (String.length (Tepic.Program.baseline_image p))

let test_program_successors () =
  let ldi = Tepic.Op.ldi ~imm:0 ~dest:0 () in
  let br op target = Tepic.Op.branch ~opcode:op ~target () in
  let p =
    Tepic.Program.make ~name:"t"
      [
        mk_block 0 [ ldi; br Tepic.Opcode.BRCT 2 ];
        mk_block 1 [ br Tepic.Opcode.BR 0 ];
        mk_block 2 [ ldi ];
      ]
  in
  Alcotest.(check (list int)) "cond: target then fall" [ 2; 1 ]
    (Tepic.Program.successors p 0);
  Alcotest.(check (list int)) "jump" [ 0 ] (Tepic.Program.successors p 1);
  Alcotest.(check (list int)) "fallthrough off the end" []
    (Tepic.Program.successors p 2)

(* --- Field streams --- *)

let prop_field_stream_roundtrip =
  let configs = List.map snd Encoding.Stream_huffman.configs in
  QCheck.Test.make ~name:"stream symbols reassemble ops (all 6 configs)"
    ~count:300 (QCheck.make (Gen_ops.op ())) (fun op ->
      List.for_all
        (fun config ->
          let syms = Tepic.Field_stream.symbols config op in
          let kind =
            let v0, w0 = syms.(0) in
            Tepic.Field_stream.kind_of_stream0 config ~value:v0 ~width:w0
          in
          kind = Tepic.Op.kind op
          &&
          let values = Array.map fst syms in
          Tepic.Op.equal op (Tepic.Field_stream.op_of_symbols config kind values))
        configs)

let prop_field_stream_widths_sum =
  let configs = List.map snd Encoding.Stream_huffman.configs in
  QCheck.Test.make ~name:"stream widths sum to 40 per format" ~count:50
    (QCheck.make (QCheck.Gen.oneofl Tepic.Format_spec.kinds)) (fun kind ->
      List.for_all
        (fun config ->
          Array.fold_left ( + ) 0 (Tepic.Field_stream.widths config kind) = 40)
        configs)

let test_field_stream_prefix_enforced () =
  let bad =
    {
      Tepic.Field_stream.name = "bad";
      nstreams = 2;
      stream_of_field = (fun f -> if f = "OPT" then 1 else 0);
    }
  in
  Alcotest.check_raises "prefix must be stream 0"
    (Invalid_argument "Field_stream bad: prefix field OPT must be in stream 0")
    (fun () -> Tepic.Field_stream.validate bad)

(* The opcode-point table against the Op.t round trip it shortcuts:
   over every 7-bit OPT|OPCODE point, with random T, S and field bits,
   [normalize v] is [to_int (of_int v)] or raises the same
   Invalid_argument; [point_kind] names the format [of_int] decodes. *)
let test_normalize_matches_op_path () =
  let rng = Random.State.make [| 128 |] in
  let outcome f v =
    match f v with
    | x -> Ok x
    | exception Invalid_argument m -> Error m
  in
  let roundtrip v = Tepic.Encode.to_int (Tepic.Encode.of_int v) in
  let same v =
    Alcotest.(check (result int string))
      (Printf.sprintf "normalize %#x" v)
      (outcome roundtrip v)
      (outcome Tepic.Encode.normalize v)
  in
  for p = 0 to 127 do
    for _ = 1 to 64 do
      let low = (Random.State.bits rng lsl 1) lor Random.State.int rng 2 in
      let v = (Random.State.int rng 4 lsl 38) lor (p lsl 31) lor low in
      same v;
      Alcotest.(check (option string))
        (Printf.sprintf "point_kind %d" p)
        (Option.map
           (fun op -> Tepic.Format_spec.kind_to_string (Tepic.Op.kind op))
           (Result.to_option (outcome Tepic.Encode.of_int v)))
        (Option.map Tepic.Format_spec.kind_to_string
           (Tepic.Encode.point_kind p))
    done
  done;
  List.iter same [ -1; 1 lsl 40; max_int; min_int ]

(* --- Word-driven encoders against the op-level references --- *)

let prop_to_int_reference =
  QCheck.Test.make ~name:"to_int = Op.fields fold (TCS 0-3)" ~count:1000
    (QCheck.make ~print:Tepic.Op.to_string (Gen_ops.op_any_tcs ()))
    (fun op -> Tepic.Encode.to_int op = Encode_reference.to_int op)

let prop_gather_reference =
  let configs = List.map snd Encoding.Stream_huffman.configs in
  QCheck.Test.make ~name:"gathered stream symbols = Field_stream.symbols"
    ~count:500
    (QCheck.make ~print:Tepic.Op.to_string (Gen_ops.op_any_tcs ()))
    (fun op ->
      let word = Tepic.Encode.to_int op and kind = Tepic.Op.kind op in
      List.for_all
        (fun config ->
          let sc = Tepic.Field_stream.scatter config kind
          and widths = Tepic.Field_stream.widths config kind in
          Array.for_all2 ( = )
            (Array.mapi
               (fun s triples -> (Tepic.Field_stream.gather triples word, widths.(s)))
               sc)
            (Tepic.Field_stream.symbols config op))
        configs)

let suite =
  [
    Alcotest.test_case "Table 2: all formats are 40 bits" `Quick
      test_format_widths;
    Alcotest.test_case "Table 2: common prefix" `Quick test_format_prefix;
    Alcotest.test_case "opcode table bijection" `Quick test_opcode_bijection;
    Alcotest.test_case "opcode mnemonics" `Quick test_opcode_mnemonics_unique;
    Alcotest.test_case "opcode classes" `Quick test_opcode_classes;
    Alcotest.test_case "op construction validation" `Quick test_op_validation;
    Alcotest.test_case "op fields cover the layout" `Quick
      test_op_fields_cover_layout;
    Alcotest.test_case "branch targets" `Quick test_branch_target;
    Alcotest.test_case "register classes of operands" `Quick test_op_regs_classes;
    Alcotest.test_case "encode op sequences" `Quick test_encode_ops_sequence;
    Alcotest.test_case "MOP tail bits" `Quick test_mop_tail_bits;
    Alcotest.test_case "MOP issue constraints" `Quick test_mop_constraints;
    Alcotest.test_case "program validation" `Quick test_program_validation;
    Alcotest.test_case "program addresses" `Quick test_program_addresses;
    Alcotest.test_case "program successors" `Quick test_program_successors;
    Alcotest.test_case "field streams reject bad configs" `Quick
      test_field_stream_prefix_enforced;
    QCheck_alcotest.to_alcotest prop_encode_roundtrip;
    QCheck_alcotest.to_alcotest prop_to_int_roundtrip;
    QCheck_alcotest.to_alcotest prop_field_stream_roundtrip;
    QCheck_alcotest.to_alcotest prop_field_stream_widths_sum;
    Alcotest.test_case "normalize = to_int (of_int v)" `Quick
      test_normalize_matches_op_path;
    Alcotest.test_case "opcode tables = table scan" `Quick
      test_opcode_tables_vs_scan;
    QCheck_alcotest.to_alcotest prop_to_int_reference;
    QCheck_alcotest.to_alcotest prop_gather_reference;
  ]
