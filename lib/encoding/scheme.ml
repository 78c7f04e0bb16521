type decoder_info = {
  dict_entries : int;
  max_code_bits : int;
  entry_bits : int;
  transistors : int;
}

type protection = Unprotected | Crc8 | Crc16

let guard_bits_of = function Unprotected -> 0 | Crc8 -> 8 | Crc16 -> 16

let poly_of = function
  | Unprotected -> 0
  | Crc8 -> Bits.Crc.crc8_poly
  | Crc16 -> Bits.Crc.crc16_poly

let protection_name = function
  | Unprotected -> "none"
  | Crc8 -> "crc8"
  | Crc16 -> "crc16"

let protection_of_name = function
  | "none" -> Some Unprotected
  | "crc8" -> Some Crc8
  | "crc16" -> Some Crc16
  | _ -> None

type frame = {
  protection : protection;
  len_bits : int;
  guard_bits : int;
  protection_bits : int;
}

let no_frame =
  { protection = Unprotected; len_bits = 0; guard_bits = 0; protection_bits = 0 }

(* Declarative decode model: what one decoded op costs on the wire, stated
   in terms of the scheme's *published* artifacts.  The certification pass
   (Cccs_analysis.Certify) consumes this — each [Book_codewords] source is
   proved against the named codebook's decode automaton, and the summed
   per-op maxima give the certified worst-case block size — so a new
   scheme (CPack, BDI, ...) is certified for free once it states its
   model. *)
type code_source =
  | Fixed_bits of { label : string; min_bits : int; max_bits : int }
  | Book_codewords of { book : string; max_per_op : int }

type t = {
  name : string;
  image : string;
  code_bits : int;
  table_bits : int;
  block_offset_bits : int array;
  block_bits : int array;
  frame : frame;
  decoder : decoder_info;
  books : (string * Huffman.Codebook.t) list;
  model : code_source list;
  decode_payload : Bits.Reader.t -> int -> Tepic.Op.t list;
  transcode_payload : Bits.Reader.t -> Bits.Writer.t -> int -> unit;
}

let ratio t ~baseline_bits =
  if baseline_bits <= 0 then invalid_arg "Scheme.ratio";
  float_of_int t.code_bits /. float_of_int baseline_bits

type decode_error = {
  scheme : string;
  block : int;
  bit : int;
  reason : string;
}

let pp_decode_error ppf e =
  Format.fprintf ppf "%s: block %d: bit %d: %s" e.scheme e.block e.bit e.reason

let decode_error_to_string e = Format.asprintf "%a" pp_decode_error e

(* The framed payload excludes the length field and the guard word; for an
   unprotected scheme it is the whole block. *)
let payload_bits t i =
  t.block_bits.(i) - t.frame.len_bits - t.frame.guard_bits

let exn_message = function
  | Invalid_argument m | Failure m -> m
  | Not_found -> "lookup failed (Not_found)"
  | exn -> Printexc.to_string exn

(* The verifying walk of one block frame with the reader already positioned
   on the block's first bit, parameterised by the payload action: decode to
   ops, or transcode straight to baseline words.  Factored out of
   [decode_block_checked] so the whole-image decode (Cccs.Par_decode)
   walks blocks back-to-back through the exact same checks — a corrupt
   stream yields the same typed error, at the same bit position, whichever
   path found it.  [payload r] runs one of the scheme's payload decoders
   from the block's first bit (a protected scheme's decoders skip the
   length field themselves). *)
let checked_at t r i payload =
  let offset = Bits.Reader.pos r in
  let fail reason =
    Error { scheme = t.name; block = i; bit = Bits.Reader.pos r; reason }
  in
  let run_and_check ~expect_consumed =
    let start = Bits.Reader.pos r in
    match payload r with
    | exception exn -> fail (exn_message exn)
    | x ->
        let consumed = Bits.Reader.pos r - start in
        if consumed <> expect_consumed then
          fail
            (Printf.sprintf "consumed %d bits, block frame holds %d" consumed
               expect_consumed)
        else Ok x
  in
  match t.frame.protection with
  | Unprotected -> run_and_check ~expect_consumed:t.block_bits.(i)
  | p -> (
      let f = t.frame in
      let expect_payload = payload_bits t i in
      match Bits.Reader.read_bits_opt r ~width:f.len_bits with
      | None -> fail "length field truncated"
      | Some plen when plen <> expect_payload ->
          fail
            (Printf.sprintf "length field reads %d, frame geometry implies %d"
               plen expect_payload)
      | Some plen -> (
          match
            Bits.Crc.of_reader ~width:f.guard_bits ~poly:(poly_of p) r
              ~nbits:plen
          with
          | exception exn -> fail (exn_message exn)
          | crc -> (
              match Bits.Reader.read_bits_opt r ~width:f.guard_bits with
              | None -> fail "guard word truncated"
              | Some guard when guard <> crc ->
                  fail
                    (Printf.sprintf
                       "guard word %#x disagrees with payload %s %#x" guard
                       (protection_name p) crc)
              | Some _ -> (
                  Bits.Reader.seek r offset;
                  (* The payload decoder re-reads the length field. *)
                  match run_and_check ~expect_consumed:(f.len_bits + plen) with
                  | Ok _ as ok ->
                      (* Step over the already-verified guard word so the
                         cursor rests past the whole framed block — the
                         invariant the back-to-back image walk relies on. *)
                      Bits.Reader.advance r f.guard_bits;
                      ok
                  | Error _ as e -> e))))

let decode_block_checked_at t r i =
  checked_at t r i (fun r -> t.decode_payload r i)

let transcode_block_checked_at t r w i =
  checked_at t r i (fun r -> t.transcode_payload r w i)

let decode_block_checked ?image t i =
  let image = match image with Some s -> s | None -> t.image in
  if i < 0 || i >= Array.length t.block_offset_bits then
    invalid_arg (Printf.sprintf "Scheme.decode_block_checked: block %d" i)
  else begin
    let r = Bits.Reader.of_string image in
    match Bits.Reader.seek r t.block_offset_bits.(i) with
    | exception exn ->
        Error
          {
            scheme = t.name;
            block = i;
            bit = Bits.Reader.pos r;
            reason = exn_message exn;
          }
    | () -> decode_block_checked_at t r i
  end

let verify t program =
  let n = Tepic.Program.num_blocks program in
  let r = Bits.Reader.of_string t.image in
  for i = 0 to n - 1 do
    let original = Tepic.Program.block_ops (Tepic.Program.block program i) in
    Bits.Reader.seek r t.block_offset_bits.(i);
    let decoded = t.decode_payload r i in
    if List.length original <> List.length decoded then
      failwith
        (Printf.sprintf "%s: block %d decodes to %d ops, expected %d" t.name i
           (List.length decoded) (List.length original));
    List.iteri
      (fun j (a, b) ->
        if not (Tepic.Op.equal a b) then
          failwith
            (Printf.sprintf "%s: block %d op %d mismatch: %s vs %s" t.name i j
               (Tepic.Op.to_string a) (Tepic.Op.to_string b)))
      (List.combine original decoded);
    (* Bit accounting: a decoder that consumes more or fewer bits than the
       block holds can still return the right ops (over-reading into the
       next block, or resynchronizing by luck); catch it here. *)
    let consumed = Bits.Reader.pos r - t.block_offset_bits.(i) in
    let expect = t.block_bits.(i) - t.frame.guard_bits in
    if consumed <> expect then
      failwith
        (Printf.sprintf
           "%s: block %d decode consumed %d bits, frame holds %d" t.name i
           consumed expect)
  done

let build_blocks program encode_block =
  let n = Tepic.Program.num_blocks program in
  let w = Bits.Writer.create ~initial_bytes:4096 () in
  let offsets = Array.make n 0 in
  let sizes = Array.make n 0 in
  for i = 0 to n - 1 do
    offsets.(i) <- Bits.Writer.length w;
    let ops = Tepic.Program.block_ops (Tepic.Program.block program i) in
    encode_block w ops;
    sizes.(i) <- Bits.Writer.length w - offsets.(i);
    ignore (Bits.Writer.align_byte w)
  done;
  (Bits.Writer.contents w, offsets, sizes)

let protect p t =
  match p with
  | Unprotected -> t
  | _ ->
      if t.frame.protection <> Unprotected then
        invalid_arg "Scheme.protect: scheme is already protected";
      let gbits = guard_bits_of p and poly = poly_of p in
      let n = Array.length t.block_bits in
      let max_payload = Array.fold_left max 0 t.block_bits in
      let len_bits = max 1 (Bits.bits_needed (max_payload + 1)) in
      let w = Bits.Writer.create ~initial_bytes:(String.length t.image * 2) () in
      let offsets = Array.make n 0 in
      let sizes = Array.make n 0 in
      let src = Bits.Reader.of_string t.image in
      for i = 0 to n - 1 do
        offsets.(i) <- Bits.Writer.length w;
        let plen = t.block_bits.(i) in
        Bits.Writer.add_bits w ~width:len_bits plen;
        Bits.Reader.seek src t.block_offset_bits.(i);
        let crc = ref 0 in
        for _ = 1 to plen do
          let b = Bits.Reader.read_bit src in
          crc := Bits.Crc.update ~width:gbits ~poly !crc b;
          Bits.Writer.add_bit w b
        done;
        Bits.Writer.add_bits w ~width:gbits !crc;
        sizes.(i) <- Bits.Writer.length w - offsets.(i);
        ignore (Bits.Writer.align_byte w)
      done;
      let image = Bits.Writer.contents w in
      let len_bits' = len_bits in
      (* Both payload decoders skip the length field; the guard word after
         the payload is left unread (checked_at is the verifying path). *)
      let decode_payload r i =
        ignore (Bits.Reader.read_bits r ~width:len_bits');
        t.decode_payload r i
      in
      let transcode_payload r w i =
        ignore (Bits.Reader.read_bits r ~width:len_bits');
        t.transcode_payload r w i
      in
      {
        t with
        image;
        code_bits = 8 * String.length image;
        block_offset_bits = offsets;
        block_bits = sizes;
        frame =
          {
            protection = p;
            len_bits;
            guard_bits = gbits;
            protection_bits = n * (len_bits + gbits);
          };
        decode_payload;
        transcode_payload;
      }
