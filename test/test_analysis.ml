(* Static-verifier tests (Cccs_analysis).

   Negative paths hand-build artifacts the pipeline's smart constructors
   would reject — a CFG with a use-before-def, an oversubscribed MOP, a
   non-prefix-free code table, a tampered decoder — and assert each fires
   exactly its registered CCCS-Exxx code.  The positive path lints a real
   compiled workload end to end and requires zero errors. *)

module A = Cccs_analysis
module Cfg = Vliw_compiler.Cfg
module Ir = Vliw_compiler.Ir
module Op = Tepic.Op
module Opcode = Tepic.Opcode

let codes diags = List.map (fun (d : A.Diag.t) -> d.A.Diag.code) diags

let has code diags =
  Alcotest.(check bool)
    (code ^ " fired") true
    (List.mem code (codes diags))

let has_not code diags =
  Alcotest.(check bool)
    (code ^ " absent") false
    (List.mem code (codes diags))

let no_errors what diags =
  let errs = List.filter A.Diag.is_error diags in
  Alcotest.(check (list string)) (what ^ ": no errors") [] (codes errs)

(* ---------------------------------------------------------------- *)
(* Diag core                                                         *)
(* ---------------------------------------------------------------- *)

let test_registry () =
  List.iter
    (fun (code, sev, _) ->
      Alcotest.(check bool)
        (code ^ " severity stable") true
        (A.Diag.severity_of_code code = sev))
    A.Diag.registry;
  Alcotest.check_raises "unknown code rejected"
    (Invalid_argument "Diag: unregistered code CCCS-E999") (fun () ->
      ignore (A.Diag.make ~code:"CCCS-E999" ~loc:(A.Diag.loc "x") "boom"))

let test_collector () =
  let c = A.Diag.Collector.create () in
  Alcotest.(check int) "clean exit" 0 (A.Diag.Collector.exit_status c);
  A.Diag.Collector.add c
    (A.Diag.make ~code:"CCCS-W004" ~loc:(A.Diag.loc "x") "dead");
  Alcotest.(check int) "warnings only exit 0" 0
    (A.Diag.Collector.exit_status c);
  A.Diag.Collector.add c
    (A.Diag.make ~code:"CCCS-E012" ~loc:(A.Diag.loc ~block:3 "x") "empty");
  Alcotest.(check int) "errors" 1 (A.Diag.Collector.errors c);
  Alcotest.(check int) "warnings" 1 (A.Diag.Collector.warnings c);
  Alcotest.(check int) "error exit 1" 1 (A.Diag.Collector.exit_status c)

let test_failed_schemes () =
  let d ?scheme code = A.Diag.make ~code ~loc:(A.Diag.loc ?scheme "x") "m" in
  Alcotest.(check (list string))
    "errors only, sorted, each once, scheme-less ignored" [ "dict"; "full" ]
    (A.Diag.failed_schemes
       [
         d ~scheme:"full" "CCCS-E204";
         d ~scheme:"dict" "CCCS-E300";
         d ~scheme:"byte" "CCCS-W107";
         d "CCCS-E012";
         d ~scheme:"full" "CCCS-E300";
       ])

(* ---------------------------------------------------------------- *)
(* Dataflow                                                          *)
(* ---------------------------------------------------------------- *)

let alu ?pred dst a b =
  let inst =
    Ir.Alu
      { opcode = Opcode.ADD; dst = Ir.vgpr dst; src1 = Ir.vgpr a;
        src2 = Ir.vgpr b }
  in
  match pred with
  | None -> Ir.unguarded inst
  | Some p -> Ir.guarded ~pred:(Ir.vpr p) inst

let ldi dst imm = Ir.unguarded (Ir.Ldi { dst = Ir.vgpr dst; imm })

let test_use_before_def () =
  (* r2 and r3 are read with no definition anywhere. *)
  let cfg =
    Cfg.make ~name:"neg" [ { Cfg.id = 0; insts = [ alu 1 2 3 ]; term = Cfg.Jump 0 } ]
  in
  let diags = A.Dataflow_check.check ~workload:"neg" cfg in
  has "CCCS-E001" diags;
  (* Declaring the registers as external inputs silences it. *)
  let diags' =
    A.Dataflow_check.check ~workload:"neg"
      ~inputs:[ Ir.vgpr 2; Ir.vgpr 3 ] cfg
  in
  has_not "CCCS-E001" diags'

let test_terminator_undefined_pred () =
  let cfg =
    Cfg.make ~name:"neg"
      [
        { Cfg.id = 0; insts = [ ldi 1 7 ];
          term = Cfg.Cond { on_true = true; pred = Ir.vpr 2; target = 0 } };
      ]
  in
  has "CCCS-E002" (A.Dataflow_check.check ~workload:"neg" cfg)

let test_return_without_call () =
  let cfg =
    Cfg.make ~name:"neg"
      [ { Cfg.id = 0; insts = []; term = Cfg.Return { link = Ir.vgpr 31 } } ]
  in
  has "CCCS-E003" (A.Dataflow_check.check ~workload:"neg" cfg)

let test_dead_def_and_unreachable () =
  let cfg =
    Cfg.make ~name:"neg"
      [
        { Cfg.id = 0; insts = [ ldi 1 7 ]; term = Cfg.Jump 0 };
        { Cfg.id = 1; insts = []; term = Cfg.Jump 1 };
      ]
  in
  let diags = A.Dataflow_check.check ~workload:"neg" cfg in
  has "CCCS-W004" diags;
  has "CCCS-W005" diags

let test_clean_cfg () =
  (* Everything defined before use, used after def, reachable, and the
     loop counter is a declared input of nothing — defined by the ldi. *)
  let cfg =
    Cfg.make ~name:"pos"
      [
        { Cfg.id = 0; insts = [ ldi 1 4; ldi 2 1 ]; term = Cfg.Fallthrough };
        { Cfg.id = 1; insts = [ alu 2 2 2 ];
          term = Cfg.Loop { counter = Ir.vgpr 1; target = 1 } };
        { Cfg.id = 2; insts = [ alu 3 2 1 ]; term = Cfg.Jump 2 };
      ]
  in
  no_errors "clean cfg" (A.Dataflow_check.check ~workload:"pos" cfg)

(* ---------------------------------------------------------------- *)
(* Schedule                                                          *)
(* ---------------------------------------------------------------- *)

let t_alu ?(dest = 1) ?(tail = false) () =
  Op.with_tail tail
    (Op.alu ~opcode:Opcode.ADD ~src1:2 ~src2:3 ~dest ())

let t_load ?(dest = 1) () = Op.load ~opcode:Opcode.LW ~src1:2 ~dest ()

let check_block = A.Schedule_check.check_block ~workload:"neg" ~block:0

let test_empty_mop () = has "CCCS-E012" (check_block [ [] ])

let test_oversubscribed_issue () =
  let ops =
    List.init (Tepic.Mop.issue_width + 1) (fun i ->
        t_alu ~dest:i ~tail:(i = Tepic.Mop.issue_width) ())
  in
  let diags = check_block [ ops ] in
  has "CCCS-E013" diags;
  has_not "CCCS-E014" diags

let test_oversubscribed_mem () =
  let ops =
    List.init (Tepic.Mop.mem_units + 1) (fun i -> t_load ~dest:i ())
    @ [ t_alu ~dest:9 ~tail:true () ]
  in
  has "CCCS-E014" (check_block [ ops ])

let test_tail_bits () =
  (* Tail bit mid-MOP, and a MOP ending without one. *)
  let diags = check_block [ [ t_alu ~dest:1 ~tail:true (); t_alu ~dest:2 () ] ] in
  has "CCCS-E010" diags;
  has "CCCS-E011" diags

let test_branch_not_last () =
  let br = Op.branch ~opcode:Opcode.BR ~target:0 () in
  has "CCCS-E015"
    (check_block [ [ br; t_alu ~dest:1 ~tail:true () ] ])

let test_same_cycle_hazards () =
  (* Two writers of r1 in one cycle. *)
  let diags =
    check_block [ [ t_alu ~dest:1 (); t_alu ~dest:1 ~tail:true () ] ]
  in
  has "CCCS-E016" diags;
  (* A branch sampling a predicate its own cycle produces. *)
  let cmpp = Op.cmpp ~opcode:Opcode.CMPP_EQ ~src1:1 ~src2:2 ~dest:3 () in
  let br =
    Op.with_tail true (Op.branch ~opcode:Opcode.BRCT ~pred:3 ~target:0 ())
  in
  has "CCCS-E016" (check_block [ [ cmpp; br ] ]);
  (* Read-old of a same-cycle write (WAR packing) is legal. *)
  no_errors "war packing"
    (check_block
       [ [ Op.alu ~opcode:Opcode.ADD ~src1:1 ~src2:1 ~dest:2 ();
           Op.with_tail true
             (Op.alu ~opcode:Opcode.ADD ~src1:4 ~src2:4 ~dest:1 ()) ] ])

(* ---------------------------------------------------------------- *)
(* Encoding                                                          *)
(* ---------------------------------------------------------------- *)

let check_table = A.Encoding_check.check_code_table ~workload:"neg" ~scheme:"t"

let test_prefix_free () =
  (* "0" is a prefix of "00". *)
  let diags = check_table [ (0, 0b0, 1); (1, 0b00, 2) ] in
  has "CCCS-E020" diags

let test_kraft_overfull () =
  (* Three one-bit codes: Kraft sum 3/2 > 1. *)
  has "CCCS-E021" (check_table [ (0, 0, 1); (1, 1, 1); (2, 1, 1) ])

let test_kraft_incomplete () =
  (* A single one-bit code leaves half the codespace dead. *)
  has "CCCS-W022" (check_table [ (0, 0, 1) ])

let test_canonical_violation () =
  (* First code of the shortest length must be all zeros. *)
  has "CCCS-E023" (check_table [ (0, 1, 1) ]);
  (* Successor must be (prev+1) << (len-prevlen). *)
  has "CCCS-E023" (check_table [ (0, 0, 1); (1, 0b11, 2) ])

let test_canonical_clean () =
  no_errors "canonical table"
    (check_table [ (5, 0b0, 1); (2, 0b10, 2); (1, 0b110, 3); (9, 0b111, 3) ])

let dummy_scheme ~image ~offsets ~bits =
  {
    Encoding.Scheme.name = "hand";
    image;
    code_bits = 8 * String.length image;
    table_bits = 0;
    block_offset_bits = offsets;
    block_bits = bits;
    frame = Encoding.Scheme.no_frame;
    decoder =
      { Encoding.Scheme.dict_entries = 0; max_code_bits = 0; entry_bits = 0;
        transistors = 0 };
    books = [];
    model = [];
    transcode_payload = (fun _ _ _ -> ());
  }

let test_geometry () =
  (* Block 0 spans [0,16) but block 1 starts at 8: overlap. *)
  let s =
    dummy_scheme ~image:"ABCD" ~offsets:[| 0; 8 |] ~bits:[| 16; 8 |]
  in
  has "CCCS-E031" (A.Encoding_check.check_geometry ~workload:"neg" s);
  (* Unaligned block start. *)
  let s' = dummy_scheme ~image:"ABCD" ~offsets:[| 0; 12 |] ~bits:[| 12; 8 |] in
  has "CCCS-E030" (A.Encoding_check.check_geometry ~workload:"neg" s');
  (* A well-formed two-block image is clean. *)
  let s'' = dummy_scheme ~image:"ABCD" ~offsets:[| 0; 16 |] ~bits:[| 13; 16 |] in
  no_errors "clean geometry" (A.Encoding_check.check_geometry ~workload:"neg" s'')

let test_dense_map_injective () =
  (* Two old values mapping to the same new index. *)
  let to_new = Hashtbl.create 4 in
  Hashtbl.add to_new 5 0;
  Hashtbl.add to_new 6 0;
  let m = { Encoding.Tailored.width = 1; to_new; to_old = [| 5; 6 |] } in
  has "CCCS-E040"
    (A.Encoding_check.check_dense_map ~workload:"neg" ~name:"reg_r" m);
  (* The honest version of the same map is clean. *)
  let to_new' = Hashtbl.create 4 in
  Hashtbl.add to_new' 5 0;
  Hashtbl.add to_new' 6 1;
  let m' = { Encoding.Tailored.width = 1; to_new = to_new'; to_old = [| 5; 6 |] } in
  no_errors "injective map"
    (A.Encoding_check.check_dense_map ~workload:"neg" ~name:"reg_r" m')

let test_dense_map_width () =
  (* Three entries cannot fit in one bit. *)
  let to_new = Hashtbl.create 4 in
  List.iteri (fun i v -> Hashtbl.add to_new v i) [ 3; 4; 5 ];
  let m = { Encoding.Tailored.width = 1; to_new; to_old = [| 3; 4; 5 |] } in
  has "CCCS-E041"
    (A.Encoding_check.check_dense_map ~workload:"neg" ~name:"opc_int" m)

(* ---------------------------------------------------------------- *)
(* Decoder                                                           *)
(* ---------------------------------------------------------------- *)

let tiny_spec () =
  let dm vals =
    let to_new = Hashtbl.create 8 in
    List.iteri (fun i v -> Hashtbl.add to_new v i) vals;
    {
      Encoding.Tailored.width = Bits.bits_needed (List.length vals);
      to_new;
      to_old = Array.of_list vals;
    }
  in
  {
    Encoding.Tailored.opcode_bits = 2;
    spec_bit = false;
    opcode_maps = [ (Opcode.Int, dm [ 0; 3; 7 ]) ];
    reg_maps = [ (Tepic.Reg.Gpr, dm [ 1; 2; 5; 9 ]) ];
    field_maps = [];
    widths = [];
  }

let test_decoder_tamper () =
  let spec = tiny_spec () in
  let text =
    Encoding.Decoder_gen.tailored_decoder ~module_name:"neg_decoder" spec
  in
  no_errors "generated decoder"
    (A.Decoder_check.check_verilog ~workload:"neg" spec text);
  (* Reroute one live codeword through default: drop its case arm. *)
  let tampered =
    String.concat "\n"
      (List.filter
         (fun line ->
           not (String.length line > 0
               && String.trim line |> fun t ->
                  String.length t > 4 && String.sub t 0 4 = "2'd2"))
         (String.split_on_char '\n' text))
  in
  has "CCCS-E050" (A.Decoder_check.check_verilog ~workload:"neg" spec tampered);
  (* An empty decoder is missing everything. *)
  has "CCCS-E050" (A.Decoder_check.check_verilog ~workload:"neg" spec "")

(* ---------------------------------------------------------------- *)
(* End-to-end: a real workload lints clean                           *)
(* ---------------------------------------------------------------- *)

let test_clean_workload () =
  let entry =
    match Workloads.Suite.find "fir" with
    | Some e -> e
    | None -> Alcotest.fail "fir workload missing"
  in
  let r = Cccs.Workload_run.load entry in
  let diags = Cccs.Analysis.lint_run r in
  Alcotest.(check int) "all passes ran: some diagnostics or none" 0
    (List.length (List.filter A.Diag.is_error diags));
  (* The compiler-side convenience entry point agrees. *)
  no_errors "Pipeline.lint"
    (Cccs.Pipeline.lint r.Cccs.Workload_run.compiled)

let suite =
  [
    Alcotest.test_case "diag registry" `Quick test_registry;
    Alcotest.test_case "diag collector" `Quick test_collector;
    Alcotest.test_case "use-before-def (E001)" `Quick test_use_before_def;
    Alcotest.test_case "undefined terminator pred (E002)" `Quick
      test_terminator_undefined_pred;
    Alcotest.test_case "return without call (E003)" `Quick
      test_return_without_call;
    Alcotest.test_case "dead def + unreachable (W004/W005)" `Quick
      test_dead_def_and_unreachable;
    Alcotest.test_case "clean CFG has no errors" `Quick test_clean_cfg;
    Alcotest.test_case "empty MOP (E012)" `Quick test_empty_mop;
    Alcotest.test_case "issue oversubscription (E013)" `Quick
      test_oversubscribed_issue;
    Alcotest.test_case "memory oversubscription (E014)" `Quick
      test_oversubscribed_mem;
    Alcotest.test_case "tail-bit discipline (E010/E011)" `Quick test_tail_bits;
    Alcotest.test_case "branch placement (E015)" `Quick test_branch_not_last;
    Alcotest.test_case "same-cycle hazards (E016)" `Quick
      test_same_cycle_hazards;
    Alcotest.test_case "prefix-freeness (E020)" `Quick test_prefix_free;
    Alcotest.test_case "Kraft overfull (E021)" `Quick test_kraft_overfull;
    Alcotest.test_case "Kraft incomplete (W022)" `Quick test_kraft_incomplete;
    Alcotest.test_case "canonical ordering (E023)" `Quick
      test_canonical_violation;
    Alcotest.test_case "canonical table clean" `Quick test_canonical_clean;
    Alcotest.test_case "block geometry (E030/E031)" `Quick test_geometry;
    Alcotest.test_case "dense map injectivity (E040)" `Quick
      test_dense_map_injective;
    Alcotest.test_case "dense map width (E041)" `Quick test_dense_map_width;
    Alcotest.test_case "decoder completeness (E050)" `Quick test_decoder_tamper;
    Alcotest.test_case "real workload lints clean" `Slow test_clean_workload;
    Alcotest.test_case "diag failed_schemes" `Quick test_failed_schemes;
  ]
