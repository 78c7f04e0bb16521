(* The decode pin: the outcome of Scheme.decode_block_checked_at for every
   block of every every_scheme entry of fir and compress, at none, crc8
   and crc16, on the clean image and under a catalogue of corruptions.
   An outcome is the cursor after the block and the MD5 of the block's
   re-encoded ops, or the typed error with its block, bit and reason.
   Each (workload, scheme, framing) becomes one line of ok count, error
   count and the MD5 of its outcome lines, compared with
   fixtures/decode_pin.txt.  An intended decode change updates that file
   by hand from the lines this test prints on a mismatch. *)

module Scheme = Encoding.Scheme

let load name =
  match Workloads.Suite.find name with
  | Some e -> Cccs.Workload_run.load e
  | None -> Alcotest.failf "workload %s missing" name

(* Every corruption of [sc]'s image, as (corrupted image, blocks to
   decode): the first, middle and last bit of each block flipped, four
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
           [ 0; sizes.(b) / 2; sizes.(b) - 1 ]
           @ List.init 4 (fun _ -> Random.State.int rng sizes.(b))
         in
         List.map (fun bit -> (Bits.flip_bits image [ first + bit ], [ b ])) flips
         @ [
             ( String.sub image 0 (first / 8),
               if b > 0 then [ b - 1; b ] else [ b ] );
           ])
       (Array.to_list sc.Scheme.block_offset_bits))

let outcome sc image k =
  let r = Bits.Reader.of_string image in
  Bits.Reader.seek r sc.Scheme.block_offset_bits.(k);
  match Scheme.decode_block_checked_at sc r k with
  | Ok ops ->
      Printf.sprintf "ok:%d:%s" (Bits.Reader.pos r)
        (Digest.to_hex (Digest.string (Tepic.Encode.encode_ops ops)))
  | Error e -> "error:" ^ Scheme.decode_error_to_string e

let pin_line workload name sc =
  let lines = ref [] in
  let note image k = lines := outcome sc image k :: !lines in
  Array.iteri (fun k _ -> note sc.Scheme.image k) sc.Scheme.block_offset_bits;
  List.iter (fun (image, blocks) -> List.iter (note image) blocks)
    (corruptions sc);
  let lines = List.rev !lines in
  let oks =
    List.length (List.filter (String.starts_with ~prefix:"ok:") lines)
  in
  Printf.sprintf "%s %s %s ok=%d error=%d %s" workload name
    (Scheme.protection_name sc.Scheme.frame.Scheme.protection)
    oks
    (List.length lines - oks)
    (Digest.to_hex (Digest.string (String.concat "\n" lines)))

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let test_pin () =
  let got =
    List.concat_map
      (fun workload ->
        let s = Cccs.Experiments.schemes_of (load workload) in
        List.concat_map
          (fun (name, sc) ->
            List.map
              (fun p -> pin_line workload name (Scheme.protect p sc))
              Scheme.[ Unprotected; Crc8; Crc16 ])
          (Cccs.Experiments.every_scheme s))
      [ "fir"; "compress" ]
  in
  if got <> read_lines "fixtures/decode_pin.txt" then begin
    List.iter print_endline got;
    Alcotest.fail
      "block decode outcomes differ from fixtures/decode_pin.txt; this \
       run's lines are printed above"
  end

let suite = [ Alcotest.test_case "decode outcomes = fixture" `Quick test_pin ]
