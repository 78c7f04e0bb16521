(* Whole-image decode (Cccs.Par_decode.decode): one walk over the blocks
   of an image, each transcoded straight to baseline words.  On a clean
   image it must give the baseline image for every scheme and framing;
   on a corrupted one, exactly the outcome of the per-block Op.t reference
   walk — the same output digest, or the same typed error with the same
   block, bit and reason. *)

module Scheme = Encoding.Scheme

let load name =
  match Workloads.Suite.find name with
  | Some e -> Cccs.Workload_run.load e
  | None -> Alcotest.failf "workload %s missing" name

let registry r =
  let s = Cccs.Experiments.schemes_of r in
  Cccs.Experiments.every_scheme s
  @ [
      ("full+crc16", Scheme.protect Scheme.Crc16 s.Cccs.Experiments.full);
      ("byte+crc8", Scheme.protect Scheme.Crc8 s.Cccs.Experiments.byte);
    ]

(* The output digest, or the typed error with its block and bit. *)
let outcome = function
  | Ok img ->
      Printf.sprintf "ok:%d:%s" (String.length img)
        (Digest.to_hex (Digest.string img))
  | Error e -> "error:" ^ Scheme.decode_error_to_string e

(* The reference: every block decoded to ops from its own ATT offset
   (Scheme.decode_block_checked), re-encoded op by op, stopping at the
   first error. *)
let reference sc image =
  let w = Bits.Writer.create () in
  let n = Array.length sc.Scheme.block_offset_bits in
  let rec go k =
    if k >= n then Ok (Bits.Writer.contents w)
    else
      match Scheme.decode_block_checked ~image sc k with
      | Error e -> Error e
      | Ok ops ->
          List.iter (Tepic.Encode.encode w) ops;
          go (k + 1)
  in
  go 0

let test_baseline_every_scheme () =
  let r = load "compress" in
  let truth =
    Tepic.Program.baseline_image
      r.Cccs.Workload_run.compiled.Cccs.Pipeline.program
  in
  List.iter
    (fun (name, sc) ->
      Alcotest.(check string)
        (name ^ " decodes to the baseline image")
        (outcome (Ok truth))
        (outcome (Cccs.Par_decode.decode sc)))
    (registry r)

(* Every registry scheme of [fir], framed or not, with the first, middle
   or last bit of any block flipped, or the image truncated at any block
   start. *)
let test_corrupt_equals_reference () =
  let r = load "fir" in
  List.iter
    (fun (name, sc) ->
      let offsets = sc.Scheme.block_offset_bits in
      let sizes = sc.Scheme.block_bits in
      let image = sc.Scheme.image in
      Alcotest.(check bool)
        (name ^ " has two blocks or more")
        true
        (Array.length offsets >= 2);
      let corruptions =
        List.concat
          (List.mapi
             (fun b first ->
               let flip site bit =
                 ( Printf.sprintf "flip block%d %s bit" b site,
                   Bits.flip_bits image [ first + bit ] )
               in
               [
                 flip "first" 0;
                 flip "middle" (sizes.(b) / 2);
                 flip "last" (sizes.(b) - 1);
                 ( Printf.sprintf "truncate at block%d" b,
                   String.sub image 0 (first / 8) );
               ])
             (Array.to_list offsets))
      in
      List.iter
        (fun (site, bad) ->
          Alcotest.(check string)
            (Printf.sprintf "%s %s: same outcome as the Op.t walk" name site)
            (outcome (reference sc bad))
            (outcome (Cccs.Par_decode.decode { sc with Scheme.image = bad })))
        (("clean", image) :: corruptions))
    (registry r)

let test_obs_one_decode_span () =
  let r = load "fir" in
  let sc = (Cccs.Experiments.schemes_of r).Cccs.Experiments.full in
  let events = ref [] in
  let obs = Cccs_obs.Sink.make (fun e -> events := e :: !events) in
  (match Cccs.Par_decode.decode ~obs sc with
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "decode under obs: %s" (Scheme.decode_error_to_string e));
  let spans =
    List.filter_map
      (function
        | Cccs_obs.Event.Span { stage = Cccs_obs.Event.Decode; label; _ } ->
            Some label
        | _ -> None)
      !events
  in
  Alcotest.(check (list string)) "one Decode-stage span" [ "decode" ] spans

let suite =
  [
    Alcotest.test_case "every scheme decodes to the baseline" `Slow
      test_baseline_every_scheme;
    Alcotest.test_case "corrupt image: same as the Op.t walk" `Slow
      test_corrupt_equals_reference;
    Alcotest.test_case "obs: one Decode-stage span" `Quick
      test_obs_one_decode_span;
  ]
