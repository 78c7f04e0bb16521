(* Image_check — image-level translation validation (CCCS-E1xx).

   For each built scheme, re-decode the raw ROM image with the abstract
   decoder (Abstract_decoder) — published tables only, no encoder
   closures — walking forward from bit 0 and recovering every block
   boundary independently of the scheme's own block index.  Validated:

   - recovered boundaries and extents match the claimed block index (E100),
   - the abstract decode stays on the published tables (E101) and inside
     every published dense map (E104),
   - the recovered op stream round-trips bit-exactly to the scheduled
     program (E102),
   - every branch recovered from the image targets a block the ATB can
     map (E103), via CFG recovery over the *recovered* ops,
   - protected frame length fields and CRC guard words agree with the
     payload, checked before and independently of op decode (E105),
   - the program emits no symbol missing from a published codebook (E106),
   - and a resynchronization-distance analysis over the Huffman-coded
     schemes: for each analyzed block, flip every payload bit in turn and
     re-decode, measuring how many codewords a single-bit fault can
     desynchronize and whether the stream ends in a structurally valid
     state (a *silent* flip).  Unframed schemes with silent flips get
     W107; a CRC frame converts every silent flip into a detected one. *)

type resync_summary = {
  blocks_analyzed : int;
  flips_analyzed : int;
  silent_flips : int;  (** flips no structural check catches *)
  max_distance : int;  (** worst-case codewords desynchronized *)
  worst_block : int;  (** block exhibiting [max_distance] *)
}

type scheme_summary = {
  scheme : string;
  blocks : int;
  ops : int;
  errors : int;
  warnings : int;
  resync : resync_summary option;
}

let align8 p = (p + 7) / 8 * 8

(* ---- resynchronization-distance analysis -------------------------- *)

(* Outcome of re-decoding one flipped block: how many codewords past the
   flip the decoder consumed before failing, resynchronizing, or running
   out of op budget — and whether anything structural caught the fault. *)
type trial = Silent of int | Detected of int

let distance_of = function Silent d | Detected d -> d

(* [resync_trial strategy ~sub ~steps ~cum ~payload_end ~op_count flip] —
   flip bit [flip] of [sub] (local coordinates) and re-decode from the
   start of the codeword containing it. *)
let resync_trial strategy ~sub ~steps ~cum ~payload_end ~op_count flip =
  let flipped = Bits.flip_bits sub [ flip ] in
  let r = Bits.Reader.of_string flipped in
  (* Last clean step starting at or before the flipped bit. *)
  let j0 = ref 0 in
  Array.iteri (fun j b -> if b <= flip then j0 := j) steps;
  let j0 = !j0 in
  Bits.Reader.seek r steps.(j0);
  let budget = op_count - cum.(j0) in
  (* Clean boundaries the corrupted stream could resynchronize onto:
     position *and* op count must match a clean step boundary. *)
  let boundary = Hashtbl.create 64 in
  for j = j0 + 1 to Array.length steps - 1 do
    Hashtbl.replace boundary steps.(j) cum.(j)
  done;
  Hashtbl.replace boundary payload_end op_count;
  let rec go consumed_cw consumed_ops =
    if consumed_ops >= budget then
      if Bits.Reader.pos r = payload_end && consumed_ops = budget then
        Silent consumed_cw
      else Detected consumed_cw
    else
      match Abstract_decoder.decode_step strategy r with
      | Error _ -> Detected (consumed_cw + 1)
      | Ok ops ->
          let consumed_cw =
            consumed_cw + Abstract_decoder.codewords_of_step strategy ops
          in
          let consumed_ops = consumed_ops + List.length ops in
          if
            Hashtbl.find_opt boundary (Bits.Reader.pos r)
            = Some (cum.(j0) + consumed_ops)
          then Silent consumed_cw
          else go consumed_cw consumed_ops
  in
  go 0 0

(* Analyze every payload bit of the given cleanly-decoded blocks. *)
let analyze_resync strategy image (blocks : Abstract_decoder.block list) =
  let flips = ref 0 and silent = ref 0 in
  let max_distance = ref 0 and worst_block = ref (-1) in
  List.iter
    (fun (blk : Abstract_decoder.block) ->
      let start_byte = blk.Abstract_decoder.start_bit / 8 in
      let end_byte = align8 blk.Abstract_decoder.end_bit / 8 in
      let sub = String.sub image start_byte (end_byte - start_byte) in
      let delta = start_byte * 8 in
      let steps =
        Array.of_list
          (List.map
             (fun (s : Abstract_decoder.step) -> s.Abstract_decoder.bit - delta)
             blk.Abstract_decoder.steps)
      in
      if Array.length steps > 0 then begin
        let cum = Array.make (Array.length steps) 0 in
        List.iteri
          (fun j (s : Abstract_decoder.step) ->
            if j + 1 < Array.length cum then
              cum.(j + 1) <- cum.(j) + List.length s.Abstract_decoder.ops)
          blk.Abstract_decoder.steps;
        let payload_end = blk.Abstract_decoder.payload_end - delta in
        let op_count = List.length blk.Abstract_decoder.ops in
        for flip = blk.Abstract_decoder.payload_start - delta to payload_end - 1
        do
          incr flips;
          let t =
            resync_trial strategy ~sub ~steps ~cum ~payload_end ~op_count flip
          in
          (match t with Silent _ -> incr silent | Detected _ -> ());
          if distance_of t > !max_distance then begin
            max_distance := distance_of t;
            worst_block := blk.Abstract_decoder.index
          end
        done
      end)
    blocks;
  {
    blocks_analyzed = List.length blocks;
    flips_analyzed = !flips;
    silent_flips = !silent;
    max_distance = !max_distance;
    worst_block = !worst_block;
  }

(* ---- codebook completeness (E106) --------------------------------- *)

let check_books
    ~(emit : ?block:int -> ?inst:int -> ?bit:int -> string -> string -> unit)
    ~program strategy =
  let budget = ref 8 in
  let miss ~block ~inst msg =
    if !budget > 0 then begin
      decr budget;
      emit ~block ~inst "CCCS-E106" msg
    end
  in
  let each_op f =
    Array.iteri
      (fun bi b ->
        List.iteri (fun j op -> f bi j op) (Tepic.Program.block_ops b))
      program.Tepic.Program.blocks
  in
  match strategy with
  | Abstract_decoder.Byte book ->
      each_op (fun bi j op ->
          String.iter
            (fun c ->
              if not (Huffman.Codebook.mem book (Char.code c)) then
                miss ~block:bi ~inst:j
                  (Printf.sprintf "byte 0x%02x has no codeword in the byte \
                                   codebook" (Char.code c)))
            (Tepic.Encode.encode_ops [ op ]))
  | Abstract_decoder.Full book ->
      each_op (fun bi j op ->
          let sym = Tepic.Encode.to_int op in
          if not (Huffman.Codebook.mem book sym) then
            miss ~block:bi ~inst:j
              (Printf.sprintf "40-bit image %#x has no codeword in the full \
                               codebook" sym))
  | Abstract_decoder.Stream (config, books) ->
      each_op (fun bi j op ->
          Array.iteri
            (fun s (v, w) ->
              if w > 0 then
                match books.(s) with
                | None ->
                    miss ~block:bi ~inst:j
                      (Printf.sprintf "scheme publishes no stream%d codebook" s)
                | Some b ->
                    if
                      not
                        (Huffman.Codebook.mem b
                           (Encoding.Stream_huffman.pack ~value:v ~width:w))
                    then
                      miss ~block:bi ~inst:j
                        (Printf.sprintf
                           "stream%d symbol %#x (%d bits) has no codeword" s v
                           w))
            (Tepic.Field_stream.symbols config op))
  | Abstract_decoder.Base | Abstract_decoder.Tailored_isa _
  | Abstract_decoder.Dict _ ->
      ()

(* ---- the per-scheme validator ------------------------------------- *)

let check_scheme ~workload ~program ?tailored ?(resync_blocks = 4)
    (sc : Encoding.Scheme.t) =
  let diags = ref [] in
  let emit ?block ?inst ?bit code msg =
    diags :=
      Diag.make ~code
        ~loc:(Diag.loc ~scheme:sc.Encoding.Scheme.name ?block ?inst ?bit
                workload)
        msg
      :: !diags
  in
  let nblocks = Tepic.Program.num_blocks program in
  let total_ops =
    Array.fold_left
      (fun a b -> a + Tepic.Program.block_num_ops b)
      0 program.Tepic.Program.blocks
  in
  let resync = ref None in
  (match Abstract_decoder.strategy_of_scheme ?tailored ~program sc with
  | Error msg -> emit "CCCS-E106" msg
  | Ok strategy ->
      let frame = sc.Encoding.Scheme.frame in
      let image = sc.Encoding.Scheme.image in
      let image_bits = 8 * String.length image in
      let r = Bits.Reader.of_string image in
      let recovered_ops = Array.make nblocks [] in
      let clean = ref [] in
      let pos = ref 0 in
      for i = 0 to nblocks - 1 do
        let start = align8 !pos in
        let claimed_start = sc.Encoding.Scheme.block_offset_bits.(i) in
        let claimed_bits = sc.Encoding.Scheme.block_bits.(i) in
        if start <> claimed_start then
          emit ~block:i ~bit:start "CCCS-E100"
            (Printf.sprintf
               "recovered block start is bit %d, the block index claims %d"
               start claimed_start);
        (* Frame validation first, independent of op decode: a checker in
           the fetch path sees the length field and guard word whether or
           not the payload decodes. *)
        if frame.Encoding.Scheme.guard_bits > 0 then begin
          let lb = frame.Encoding.Scheme.len_bits in
          let gb = frame.Encoding.Scheme.guard_bits in
          if start + lb > image_bits then
            emit ~block:i ~bit:start "CCCS-E105"
              "frame truncated before the length field"
          else begin
            Bits.Reader.seek r start;
            let plen = Bits.Reader.read_bits r ~width:lb in
            let claimed_payload = Encoding.Scheme.payload_bits sc i in
            if plen <> claimed_payload then
              emit ~block:i ~bit:start "CCCS-E105"
                (Printf.sprintf
                   "frame length field says %d payload bits, the block \
                    geometry says %d" plen claimed_payload);
            if Bits.Reader.remaining r < plen + gb then
              emit ~block:i ~bit:start "CCCS-E105"
                "frame truncated before the guard word"
            else begin
              let poly = Encoding.Scheme.poly_of frame.protection in
              let crc = Bits.Crc.of_reader ~width:gb ~poly r ~nbits:plen in
              let guard = Bits.Reader.read_bits r ~width:gb in
              if crc <> guard then
                emit ~block:i ~bit:(start + lb + plen) "CCCS-E105"
                  (Printf.sprintf
                     "guard word %#x disagrees with the payload CRC %#x" guard
                     crc)
            end
          end
        end;
        let op_count = Tepic.Program.block_num_ops (Tepic.Program.block program i) in
        match
          Abstract_decoder.decode_block strategy ~frame r ~index:i ~start
            ~op_count
        with
        | Error (bit, e) ->
            let code =
              match e with
              | Abstract_decoder.Out_of_range _ -> "CCCS-E104"
              | _ -> "CCCS-E101"
            in
            emit ~block:i ~bit code (Abstract_decoder.error_to_string e);
            (* Re-anchor on the claimed index so one bad block does not
               cascade a spurious finding onto every later block. *)
            pos := claimed_start + claimed_bits
        | Ok blk ->
            let recovered = blk.Abstract_decoder.ops in
            let expected = Tepic.Program.block_ops (Tepic.Program.block program i) in
            let nr = List.length recovered and ne = List.length expected in
            if nr <> ne then
              emit ~block:i ~bit:start "CCCS-E102"
                (Printf.sprintf "recovered %d ops, the program schedules %d" nr
                   ne)
            else begin
              (* Report the first mismatching op, with the bit position of
                 the decode step that produced it. *)
              let bit_of_op j =
                let rec find n = function
                  | [] -> start
                  | (s : Abstract_decoder.step) :: rest ->
                      let n' = n + List.length s.Abstract_decoder.ops in
                      if j < n' then s.Abstract_decoder.bit else find n' rest
                in
                find 0 blk.Abstract_decoder.steps
              in
              let rec cmp j rs es =
                match (rs, es) with
                | r0 :: rs', e0 :: es' ->
                    if Tepic.Op.equal r0 e0 then cmp (j + 1) rs' es'
                    else
                      emit ~block:i ~inst:j ~bit:(bit_of_op j) "CCCS-E102"
                        "recovered op disagrees with the scheduled program"
                | _ -> ()
              in
              cmp 0 recovered expected
            end;
            let extent =
              blk.Abstract_decoder.end_bit - blk.Abstract_decoder.start_bit
            in
            if extent <> claimed_bits then
              emit ~block:i ~bit:start "CCCS-E100"
                (Printf.sprintf
                   "recovered block occupies %d bits, the block index claims \
                    %d" extent claimed_bits);
            recovered_ops.(i) <- recovered;
            clean := blk :: !clean;
            pos := blk.Abstract_decoder.end_bit
      done;
      if align8 !pos <> image_bits then
        emit ~bit:(align8 !pos) "CCCS-E100"
          (Printf.sprintf
             "image is %d bits but the recovered blocks end at bit %d"
             image_bits (align8 !pos));
      (* CFG recovery over the *recovered* ops: every reachable branch must
         target a block id the ATB can map to an offset. *)
      let cfg = Cfg_recover.recover ~entry:0 recovered_ops in
      Array.iteri
        (fun i succs ->
          if cfg.Cfg_recover.reachable.(i) then
            List.iter
              (fun s ->
                if s < 0 || s >= nblocks then
                  emit ~block:i "CCCS-E103"
                    (Printf.sprintf
                       "recovered branch targets block %d, outside the \
                        %d-entry ATB map" s nblocks))
              succs)
        cfg.Cfg_recover.succs;
      check_books ~emit ~program strategy;
      (* Resynchronization distance, Huffman-coded schemes only: the
         fixed-layout schemes re-align at every op by construction. *)
      (match strategy with
      | Abstract_decoder.Byte _ | Abstract_decoder.Stream _
      | Abstract_decoder.Full _ ->
          let blocks =
            List.filteri (fun j _ -> j < resync_blocks) (List.rev !clean)
          in
          if blocks <> [] then begin
            let rs = analyze_resync strategy image blocks in
            resync := Some rs;
            if
              frame.Encoding.Scheme.protection = Encoding.Scheme.Unprotected
              && rs.silent_flips > 0
            then
              emit ~block:rs.worst_block "CCCS-W107"
                (Printf.sprintf
                   "%d of %d single-bit flips decode with no structural \
                    violation; the worst desynchronizes %d codewords (block \
                    %d) — an unframed block has no way to catch them"
                   rs.silent_flips rs.flips_analyzed rs.max_distance
                   rs.worst_block)
          end
      | _ -> ()));
  let out = List.rev !diags in
  let errors = List.length (List.filter Diag.is_error out) in
  let warnings =
    List.length (List.filter (fun d -> d.Diag.severity = Diag.Warning) out)
  in
  ( out,
    {
      scheme = sc.Encoding.Scheme.name;
      blocks = nblocks;
      ops = total_ops;
      errors;
      warnings;
      resync = !resync;
    } )

let check ~workload ~program ?tailored ?resync_blocks schemes =
  List.concat_map
    (fun sc ->
      fst (check_scheme ~workload ~program ?tailored ?resync_blocks sc))
    schemes

let pass : (module Pass.S) =
  (module struct
    let name = "image"

    let doc =
      "image-level translation validation: abstract decode, recovered CFG, \
       resync distance"

    let run (t : Pass.target) =
      match t.Pass.program with
      | None -> []
      | Some program ->
          check ~workload:t.Pass.workload ~program ?tailored:t.Pass.tailored
            t.Pass.schemes
  end)
