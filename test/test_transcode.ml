(* The transcode path against the Op.t path it replaces.  For every
   registry scheme, unprotected and CRC-framed, each block is decoded both
   ways from the same reader position: Scheme.decode_block_checked_at with
   its ops re-encoded by Tepic.Encode, and
   Scheme.transcode_block_checked_at writing baseline words directly.
   The two must agree exactly — the same bytes and the same cursor after
   the block, or the same typed error with the same block, bit and
   reason — on the clean image, with the first, middle or last bit of any
   block flipped, and with the image truncated at any block start. *)

module Scheme = Encoding.Scheme

let load name =
  match Workloads.Suite.find name with
  | Some e -> Cccs.Workload_run.load e
  | None -> Alcotest.failf "workload %s missing" name

let registry r =
  let s = Cccs.Experiments.schemes_of r in
  Cccs.Experiments.all_schemes s @ [ ("dict", s.Cccs.Experiments.dict) ]

let outcome = function
  | Ok (bytes, pos) ->
      Printf.sprintf "ok:%d:%s" pos (Digest.to_hex (Digest.string bytes))
  | Error e -> "error:" ^ Scheme.decode_error_to_string e

let at sc image k =
  let r = Bits.Reader.of_string image in
  Bits.Reader.seek r sc.Scheme.block_offset_bits.(k);
  r

let via_ops sc image k =
  let r = at sc image k in
  outcome
    (Result.map
       (fun ops -> (Tepic.Encode.encode_ops ops, Bits.Reader.pos r))
       (Scheme.decode_block_checked_at sc r k))

let via_transcode sc image k =
  let r = at sc image k in
  let w = Bits.Writer.create () in
  outcome
    (Result.map
       (fun () -> (Bits.Writer.contents w, Bits.Reader.pos r))
       (Scheme.transcode_block_checked_at sc r w k))

(* Every corruption of [sc]'s image, as (site, corrupted image, blocks to
   compare): the first, middle and last bit of each block flipped, four
   more bits of it drawn from a generator seeded by the block index (so
   the flips also land inside op prefixes and opcode fields), and the
   image truncated at the block's start — block [b] then finds no bits,
   and block [b - 1] ends right at the end of the string. *)
let corruptions sc =
  let image = sc.Scheme.image in
  let sizes = sc.Scheme.block_bits in
  List.concat
    (List.mapi
       (fun b first ->
         let rng = Random.State.make [| b; sizes.(b) |] in
         let flips =
           [ ("first", 0); ("middle", sizes.(b) / 2); ("last", sizes.(b) - 1) ]
           @ List.init 4 (fun j ->
                 (Printf.sprintf "seeded%d" j, Random.State.int rng sizes.(b)))
         in
         List.map
           (fun (site, bit) ->
             ("flip " ^ site, Bits.flip_bits image [ first + bit ], [ b ]))
           flips
         @ [
             ( "truncated",
               String.sub image 0 (first / 8),
               if b > 0 then [ b - 1; b ] else [ b ] );
           ])
       (Array.to_list sc.Scheme.block_offset_bits))

(* [check_scheme ~label sc] — both paths over the clean image and every
   corruption; returns how many Op.t outcomes were typed errors. *)
let check_scheme ~label sc =
  let errors = ref 0 in
  let same site image k =
    let expect = via_ops sc image k in
    if String.starts_with ~prefix:"error" expect then incr errors;
    Alcotest.(check string)
      (Printf.sprintf "%s %s block %d" label site k)
      expect (via_transcode sc image k)
  in
  Array.iteri
    (fun k _ -> same "clean" sc.Scheme.image k)
    sc.Scheme.block_offset_bits;
  List.iter
    (fun (site, image, blocks) -> List.iter (same site image) blocks)
    (corruptions sc);
  !errors

let framings = Scheme.[ Unprotected; Crc8; Crc16 ]

let differential workload () =
  let r = load workload in
  let errors = ref 0 in
  List.iter
    (fun (name, sc) ->
      List.iter
        (fun p ->
          errors :=
            !errors
            + check_scheme
                ~label:(name ^ "+" ^ Scheme.protection_name p)
                (Scheme.protect p sc))
        framings)
    (registry r);
  (* The corruptions must reach the error paths, not just the clean
     ones. *)
  Alcotest.(check bool)
    (workload ^ ": corruptions produced typed errors")
    true (!errors > 0)

(* Random programs reach what the workloads never use: TCS=1 memory ops
   (the tailored register-file switch), ITOF/FTOI, every format. *)
let builders =
  [
    ("base", Encoding.Baseline.build);
    ("byte", Encoding.Byte_huffman.build);
    ("full", Encoding.Full_huffman.build);
    ("tailored", Encoding.Tailored.build);
    ("dict", Encoding.Dictionary.build);
  ]
  @ List.map
      (fun (name, c) -> (name, Encoding.Stream_huffman.build ~config:c))
      Encoding.Stream_huffman.configs

let prop_random_programs =
  QCheck.Test.make ~name:"transcode = Op.t path: random programs" ~count:25
    (QCheck.make (Gen_ops.program ())) (fun prog ->
      List.iter
        (fun (name, build) ->
          let sc = build prog in
          List.iter
            (fun p ->
              ignore
                (check_scheme
                   ~label:(name ^ "+" ^ Scheme.protection_name p)
                   (Scheme.protect p sc)))
            [ Scheme.Unprotected; Scheme.Crc8 ])
        builders;
      true)

let suite =
  [
    Alcotest.test_case "transcode = Op.t path: fir" `Quick (differential "fir");
    Alcotest.test_case "transcode = Op.t path: compress" `Slow
      (differential "compress");
    QCheck_alcotest.to_alcotest prop_random_programs;
  ]
