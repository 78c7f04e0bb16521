(* Failure injection and edge-condition tests: the library must fail
   loudly, not silently, on corrupted inputs. *)

let check = Alcotest.(check int)

let small_program =
  lazy
    ((Cccs.Pipeline.compile (Workloads.Kernels.fir ~taps:8 ~samples:8))
       .Cccs.Pipeline.program)

(* Flipping a bit in a Huffman stream must surface as different decoded
   symbols or a decode exception — never as the silently identical
   program. *)
let test_corrupt_image_detected () =
  let f = Huffman.Freq.create () in
  List.iteri (fun i c -> Huffman.Freq.add_many f i c) [ 50; 20; 9; 4; 2; 1 ];
  let book = Huffman.Codebook.make ~symbol_bits:(fun _ -> 8) f in
  let symbols = [ 0; 1; 2; 3; 4; 5; 0; 0; 1; 2 ] in
  let w = Bits.Writer.create () in
  List.iter (Huffman.Codebook.write book w) symbols;
  let clean = Bits.Writer.contents w in
  let corrupt =
    let b = Bytes.of_string clean in
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x80));
    Bytes.to_string b
  in
  let decode image =
    let r = Bits.Reader.of_string image in
    List.map (fun _ -> Huffman.Codebook.read book r) symbols
  in
  let detected =
    try decode corrupt <> symbols with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "corruption detected" true detected;
  Alcotest.(check bool) "clean stream decodes" true (decode clean = symbols)

let test_truncated_stream_raises () =
  (* A canonical decoder walking off a truncated stream must raise. *)
  let f = Huffman.Freq.create () in
  Huffman.Freq.add_many f 1 5;
  Huffman.Freq.add_many f 2 3;
  Huffman.Freq.add_many f 3 1;
  let book = Huffman.Codebook.make ~symbol_bits:(fun _ -> 8) f in
  let w = Bits.Writer.create () in
  Huffman.Codebook.write book w 3;
  let s = Bits.Writer.contents w in
  (* Seek past the single symbol and read again: exhaustion must raise. *)
  let r = Bits.Reader.of_string (String.sub s 0 0) in
  Alcotest.check_raises "empty stream"
    (Invalid_argument "Bits.Reader.read_bit: exhausted at bit 0/0") (fun () ->
      ignore (Huffman.Codebook.read book r))

let test_att_straddling_blocks () =
  (* A block whose compressed bits straddle a line boundary must count
     both lines. *)
  let prog = Lazy.force small_program in
  let s = Encoding.Baseline.build prog in
  let att = Encoding.Att.build s ~line_bits:64 prog in
  Array.iteri
    (fun i (e : Encoding.Att.entry) ->
      let offset = s.Encoding.Scheme.block_offset_bits.(i) in
      let bits = s.Encoding.Scheme.block_bits.(i) in
      let expect = ((offset + max 1 bits - 1) / 64) - (offset / 64) + 1 in
      check (Printf.sprintf "block %d lines" i) expect e.Encoding.Att.lines)
    att.Encoding.Att.entries

let test_trace_bounds () =
  let t = Emulator.Trace.create () in
  Emulator.Trace.add t 5;
  Alcotest.check_raises "get out of range" (Invalid_argument "Trace.get")
    (fun () -> ignore (Emulator.Trace.get t 1))

let test_reader_seek_bounds () =
  let r = Bits.Reader.of_string "ab" in
  Alcotest.check_raises "seek past end"
    (Invalid_argument "Bits.Reader.seek: bit 17 outside stream of 16 bits")
    (fun () -> Bits.Reader.seek r 17)

let test_unspillable_pool_exhaustion () =
  (* More simultaneously-live loop counters than registers: the allocator
     must refuse rather than spill a terminator register. *)
  let open Vliw_compiler in
  let v = Ir.vgpr in
  let bb id insts term = { Cfg.id; insts; term } in
  (* Five simultaneously-live counters, window of three registers. *)
  let blocks =
    [
      bb 0
        (List.init 5 (fun i -> Ir.unguarded (Ir.Ldi { dst = v (i + 1); imm = 3 })))
        Cfg.Fallthrough;
      bb 1 [] (Cfg.Loop { counter = v 1; target = 1 });
      bb 2 [] (Cfg.Loop { counter = v 2; target = 1 });
      bb 3 [] (Cfg.Loop { counter = v 3; target = 1 });
      bb 4 [] (Cfg.Loop { counter = v 4; target = 1 });
      bb 5 [] (Cfg.Loop { counter = v 5; target = 1 });
    ]
  in
  let cfg = Cfg.make ~name:"counters" blocks in
  let window cls _ =
    match cls with Tepic.Reg.Gpr -> [ 0; 1; 2 ] | _ -> [ 1; 2; 3 ]
  in
  Alcotest.check_raises "unspillable overflow"
    (Invalid_argument "Regalloc: unspillable registers exceed the pool")
    (fun () -> ignore (Regalloc.allocate ~allowed:window ~spill_base:100 cfg))

let test_empty_memory_rejected () =
  Alcotest.check_raises "machine needs memory"
    (Invalid_argument "Machine.create: mem_size") (fun () ->
      ignore (Emulator.Machine.create ~mem_size:0 ()))

let test_scheme_verify_catches_mutation () =
  (* Scheme.verify must catch a decoder that returns wrong ops. *)
  let prog = Lazy.force small_program in
  let s = Encoding.Baseline.build prog in
  let lying =
    {
      s with
      Encoding.Scheme.decode_payload =
        (fun r i ->
          match s.Encoding.Scheme.decode_payload r i with
          | first :: rest -> Tepic.Op.with_tail (not first.Tepic.Op.tail) first :: rest
          | [] -> []);
    }
  in
  let raised =
    try
      Encoding.Scheme.verify lying prog;
      false
    with Failure _ -> true
  in
  Alcotest.(check bool) "mutation detected" true raised

let suite =
  [
    Alcotest.test_case "corrupt image detected" `Quick test_corrupt_image_detected;
    Alcotest.test_case "truncated stream raises" `Quick test_truncated_stream_raises;
    Alcotest.test_case "ATT line straddling" `Quick test_att_straddling_blocks;
    Alcotest.test_case "trace bounds" `Quick test_trace_bounds;
    Alcotest.test_case "reader seek bounds" `Quick test_reader_seek_bounds;
    Alcotest.test_case "unspillable pool exhaustion" `Quick
      test_unspillable_pool_exhaustion;
    Alcotest.test_case "machine memory validation" `Quick test_empty_memory_rejected;
    Alcotest.test_case "verify catches lying decoders" `Quick
      test_scheme_verify_catches_mutation;
  ]
