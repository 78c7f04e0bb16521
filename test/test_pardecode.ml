(* Parallel decode: chunk-plan arithmetic, and the hard contract — an
   image split at its ATT block offsets decodes bit-exactly like the
   sequential walk, for every scheme in the registry, on clean and on
   corrupted images alike. *)

let check = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Pure planner.                                                       *)

let segments sizes =
  (* Byte-aligned layout like Scheme.build_blocks: offsets accumulate the
     padded sizes. *)
  let n = Array.length sizes in
  let offsets = Array.make n 0 in
  let pos = ref 0 in
  Array.iteri
    (fun i s ->
      offsets.(i) <- !pos;
      pos := !pos + ((s + 7) / 8 * 8))
    sizes;
  offsets

let check_plan_invariants ~offsets ~sizes ~jobs plan =
  let n = Array.length sizes in
  Alcotest.(check bool) "at most jobs chunks" true (Array.length plan <= jobs);
  Alcotest.(check bool)
    "at least one chunk" true
    (n = 0 || Array.length plan >= 1);
  (* Chunks tile the segment range contiguously, in order. *)
  let next = ref 0 in
  Array.iteri
    (fun i (c : Huffman.Par_decode.chunk) ->
      check (Printf.sprintf "chunk %d id" i) i c.Huffman.Par_decode.id;
      check
        (Printf.sprintf "chunk %d first" i)
        !next c.Huffman.Par_decode.first;
      Alcotest.(check bool)
        (Printf.sprintf "chunk %d non-empty" i)
        true
        (c.Huffman.Par_decode.count >= 1);
      check
        (Printf.sprintf "chunk %d start_bit" i)
        offsets.(c.Huffman.Par_decode.first)
        c.Huffman.Par_decode.start_bit;
      let bits = ref 0 in
      for k = c.Huffman.Par_decode.first to
          c.Huffman.Par_decode.first + c.Huffman.Par_decode.count - 1 do
        bits := !bits + sizes.(k)
      done;
      check (Printf.sprintf "chunk %d bits" i) !bits c.Huffman.Par_decode.bits;
      next := c.Huffman.Par_decode.first + c.Huffman.Par_decode.count)
    plan;
  check "chunks cover every segment" n !next

let test_plan_shapes () =
  let sizes = Array.make 64 100 in
  let offsets = segments sizes in
  List.iter
    (fun jobs ->
      let plan = Huffman.Par_decode.plan ~offsets ~sizes ~jobs ~min_bits:0 in
      check_plan_invariants ~offsets ~sizes ~jobs plan;
      check (Printf.sprintf "jobs=%d gets %d chunks" jobs jobs) jobs
        (Array.length plan))
    [ 1; 2; 4; 8 ];
  (* min_bits floor: 64 segments * 100 bits with a 3200-bit floor fits at
     most two chunks' worth of floor... each chunk must reach 3200 bits,
     so the plan makes exactly 2 chunks even at jobs=8. *)
  let plan = Huffman.Par_decode.plan ~offsets ~sizes ~jobs:8 ~min_bits:3200 in
  check_plan_invariants ~offsets ~sizes ~jobs:8 plan;
  check "min_bits floor bounds the chunk count" 2 (Array.length plan);
  (* An image smaller than the floor stays whole. *)
  let plan = Huffman.Par_decode.plan ~offsets ~sizes ~jobs:8 ~min_bits:999_999 in
  check "too small to split" 1 (Array.length plan);
  (* Empty input: empty plan. *)
  check "empty image" 0
    (Array.length
       (Huffman.Par_decode.plan ~offsets:[||] ~sizes:[||] ~jobs:4 ~min_bits:0));
  (* Uneven sizes still tile exactly. *)
  let sizes = [| 5; 900; 3; 3; 3; 700; 1; 1200; 8 |] in
  let offsets = segments sizes in
  List.iter
    (fun jobs ->
      check_plan_invariants ~offsets ~sizes ~jobs
        (Huffman.Par_decode.plan ~offsets ~sizes ~jobs ~min_bits:0))
    [ 1; 2; 3; 4; 9; 20 ]

let test_plan_validation () =
  Alcotest.check_raises "mismatched arrays"
    (Invalid_argument "Par_decode.plan: length") (fun () ->
      ignore
        (Huffman.Par_decode.plan ~offsets:[| 0 |] ~sizes:[||] ~jobs:2
           ~min_bits:0));
  Alcotest.check_raises "jobs < 1" (Invalid_argument "Par_decode.plan: jobs")
    (fun () ->
      ignore
        (Huffman.Par_decode.plan ~offsets:[| 0 |] ~sizes:[| 8 |] ~jobs:0
           ~min_bits:0))

let test_gather () =
  Alcotest.(check string)
    "byte blit concat" "abcdef"
    (Huffman.Par_decode.gather [ "ab"; ""; "cd"; "ef" ]);
  Alcotest.(check string) "empty" "" (Huffman.Par_decode.gather [])

(* ------------------------------------------------------------------ *)
(* End-to-end decode over the scheme registry.                         *)

let load name =
  match Workloads.Suite.find name with
  | Some e -> Cccs.Workload_run.load e
  | None -> Alcotest.failf "workload %s missing" name

let registry r =
  let s = Cccs.Experiments.schemes_of r in
  Cccs.Experiments.all_schemes s
  @ [
      ("dict", s.Cccs.Experiments.dict);
      ( "full+crc16",
        Encoding.Scheme.protect Encoding.Scheme.Crc16 s.Cccs.Experiments.full );
      ( "byte+crc8",
        Encoding.Scheme.protect Encoding.Scheme.Crc8 s.Cccs.Experiments.byte );
    ]

(* The output digest, or the typed error with its block and bit. *)
let outcome = function
  | Ok (img, _) ->
      Printf.sprintf "ok:%d:%s" (String.length img)
        (Digest.to_hex (Digest.string img))
  | Error e -> "error:" ^ Encoding.Scheme.decode_error_to_string e

let sequential ~name sc =
  match Cccs.Par_decode.decode ~jobs:1 sc with
  | Ok (img, _) -> img
  | Error e ->
      Alcotest.failf "%s sequential: %s" name
        (Encoding.Scheme.decode_error_to_string e)

(* A clean forced decode of [sc] at [jobs]: bit-exact with [seq], and
   really split — at least two chunks, at most [jobs]. *)
let check_forced_split ~name ~seq ~jobs sc =
  match Cccs.Par_decode.decode ~jobs ~force:true ~min_chunk_bits:0 sc with
  | Error e ->
      Alcotest.failf "%s jobs=%d: %s" name jobs
        (Encoding.Scheme.decode_error_to_string e)
  | Ok (img, rep) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s jobs=%d bit-exact" name jobs)
        true (String.equal img seq);
      Alcotest.(check bool)
        (Printf.sprintf "%s jobs=%d splits into 2..%d chunks (got %d)" name
           jobs jobs rep.Cccs.Par_decode.chunks)
        true
        (rep.Cccs.Par_decode.chunks >= 2 && rep.Cccs.Par_decode.chunks <= jobs)

let test_bitexact_every_scheme () =
  let r = load "compress" in
  let truth =
    Tepic.Program.baseline_image
      r.Cccs.Workload_run.compiled.Cccs.Pipeline.program
  in
  List.iter
    (fun (name, sc) ->
      let seq = sequential ~name sc in
      Alcotest.(check bool)
        (name ^ ": sequential decode equals baseline image")
        true (String.equal seq truth);
      List.iter (fun jobs -> check_forced_split ~name ~seq ~jobs sc) [ 2; 4 ];
      (* At the default chunk floor the decode follows the planner's cut
         exactly. *)
      match Cccs.Par_decode.decode ~jobs:2 ~force:true sc with
      | Error e ->
          Alcotest.failf "%s default floor: %s" name
            (Encoding.Scheme.decode_error_to_string e)
      | Ok (img, rep) ->
          Alcotest.(check bool)
            (name ^ " default floor bit-exact")
            true (String.equal img seq);
          check
            (name ^ " default floor follows the plan")
            (Array.length
               (Huffman.Par_decode.plan
                  ~offsets:sc.Encoding.Scheme.block_offset_bits
                  ~sizes:sc.Encoding.Scheme.block_bits ~jobs:2
                  ~min_bits:Huffman.Par_decode.chunk_floor_bits))
            rep.Cccs.Par_decode.chunks)
    (registry r)

(* [report.jobs] counts the workers the decode really used: an image
   under the floor is one chunk, decoded in place, whatever was asked. *)
let test_report_jobs_used () =
  let r = load "fir" in
  let sc = (Cccs.Experiments.schemes_of r).Cccs.Experiments.base in
  Alcotest.(check bool)
    "fir base is under the chunk floor" true
    (8 * String.length sc.Encoding.Scheme.image
    < Huffman.Par_decode.chunk_floor_bits);
  match Cccs.Par_decode.decode ~jobs:2 ~force:true sc with
  | Error e ->
      Alcotest.failf "fir base: %s" (Encoding.Scheme.decode_error_to_string e)
  | Ok (_, rep) ->
      check "one chunk" 1 rep.Cccs.Par_decode.chunks;
      check "one worker used" 1 rep.Cccs.Par_decode.jobs

(* The differential contract on real splits: every registry scheme of
   [fir], framed or not, cut at its ATT offsets into 2 or 4 chunks, must
   give the sequential walk's outcome on every corruption — the same
   output digest, or the same typed error with the same block and bit.
   Corruptions: the first, middle and last bit of every block flipped,
   and the image truncated at every block start. *)
let test_corrupt_stream_equality () =
  let r = load "fir" in
  List.iter
    (fun (name, sc) ->
      let offsets = sc.Encoding.Scheme.block_offset_bits in
      let sizes = sc.Encoding.Scheme.block_bits in
      let n = Array.length offsets in
      Alcotest.(check bool) (name ^ " has two blocks or more") true (n >= 2);
      let seq = sequential ~name sc in
      List.iter (fun jobs -> check_forced_split ~name ~seq ~jobs sc) [ 2; 4 ];
      let image = sc.Encoding.Scheme.image in
      let corruptions =
        List.concat
          (List.init n (fun b ->
               let first = offsets.(b) in
               let last = first + sizes.(b) - 1 in
               [
                 ( Printf.sprintf "flip block%d first bit" b,
                   Bits.flip_bits image [ first ] );
                 ( Printf.sprintf "flip block%d middle bit" b,
                   Bits.flip_bits image [ first + (sizes.(b) / 2) ] );
                 ( Printf.sprintf "flip block%d last bit" b,
                   Bits.flip_bits image [ last ] );
                 ( Printf.sprintf "truncate at block%d" b,
                   String.sub image 0 (first / 8) );
               ]))
      in
      List.iter
        (fun (site, image) ->
          let expect = outcome (Cccs.Par_decode.decode ~jobs:1 ~image sc) in
          List.iter
            (fun jobs ->
              Alcotest.(check string)
                (Printf.sprintf "%s %s jobs=%d same outcome" name site jobs)
                expect
                (outcome
                   (Cccs.Par_decode.decode ~jobs ~force:true ~min_chunk_bits:0
                      ~image sc)))
            [ 2; 4 ])
        corruptions)
    (registry r)

let test_obs_spans_decode_stage () =
  let r = load "fir" in
  let s = Cccs.Experiments.schemes_of r in
  let events = ref [] in
  let obs = Cccs_obs.Sink.make (fun e -> events := e :: !events) in
  (match
     Cccs.Par_decode.decode ~jobs:4 ~force:true ~min_chunk_bits:0 ~obs
       s.Cccs.Experiments.base
   with
  | Ok (_, rep) ->
      (* A shared sink is not thread-safe: an installed observer forces the
         sequential one-chunk path, and its span lands on the Decode
         stage. *)
      check "obs forces one worker" 1 rep.Cccs.Par_decode.jobs
  | Error e ->
      Alcotest.failf "decode under obs: %s"
        (Encoding.Scheme.decode_error_to_string e));
  let spans =
    List.filter_map
      (function
        | Cccs_obs.Event.Span { stage = Cccs_obs.Event.Decode; label; _ } ->
            Some label
        | _ -> None)
      !events
  in
  Alcotest.(check (list string)) "one Decode-stage chunk span" [ "chunk0" ] spans

let suite =
  [
    Alcotest.test_case "chunk plans tile the image" `Quick test_plan_shapes;
    Alcotest.test_case "plan input validation" `Quick test_plan_validation;
    Alcotest.test_case "gather is ordered concat" `Quick test_gather;
    Alcotest.test_case "parallel = sequential, every scheme" `Slow
      test_bitexact_every_scheme;
    Alcotest.test_case "corrupt stream: identical typed errors" `Slow
      test_corrupt_stream_equality;
    Alcotest.test_case "obs: chunk spans on the Decode stage" `Quick
      test_obs_spans_decode_stage;
    Alcotest.test_case "report counts the workers used" `Quick
      test_report_jobs_used;
  ]
