(* Abstract decoder — an independent re-implementation of every scheme's
   decode path, driven only by the scheme's *published* ROM artifacts:
   canonical codebooks, field-width tables, the tailored spec, the
   dictionary contents and the frame geometry.  It deliberately never
   calls the scheme's own decoder ([transcode_payload]) and never seeks by
   the encoder's block index, so a bug in the builders cannot hide itself —
   the image is decoded from bit 0 forward exactly as a hardware decoder
   ROM-programmed from the same tables would.

   The op counts per block come from the scheduled program — the *spec*
   side of the translation being validated — never from the scheme. *)

(* How to decode one step of a scheme's symbol stream. *)
type strategy =
  | Base
  | Byte of Huffman.Codebook.t
  | Stream of Tepic.Field_stream.t * Huffman.Codebook.t option array
  | Full of Huffman.Codebook.t
  | Tailored_isa of Encoding.Tailored.spec
  | Dict of { entries : int list array; idx_bits : int }

(* Why a decode step rejected the stream.  [Out_of_range] is separated
   from the generic failures because it maps to its own diagnostic (a
   dense-table index past the published table, CCCS-E104). *)
type error =
  | Truncated
  | Off_table of string  (** codebook name *)
  | Out_of_range of { field : string; index : int; size : int }
  | Malformed of string

let error_to_string = function
  | Truncated -> "stream exhausted mid-op"
  | Off_table book ->
      Printf.sprintf "codepoint off the published %S table" book
  | Out_of_range { field; index; size } ->
      Printf.sprintf "field %s index %d past its %d-entry table" field index
        size
  | Malformed m -> m

let strategy_of_scheme ?tailored ~program (sc : Encoding.Scheme.t) =
  let book name =
    match List.assoc_opt name sc.Encoding.Scheme.books with
    | Some b -> Ok b
    | None ->
        Error
          (Printf.sprintf "scheme %s publishes no %S codebook"
             sc.Encoding.Scheme.name name)
  in
  match sc.Encoding.Scheme.name with
  | "base" -> Ok Base
  | "byte" -> Result.map (fun b -> Byte b) (book "byte")
  | "full" -> Result.map (fun b -> Full b) (book "full")
  | "tailored" -> (
      match tailored with
      | Some spec -> Ok (Tailored_isa spec)
      | None -> Error "no tailored spec supplied for scheme tailored")
  | "dict" ->
      let entries = Encoding.Dictionary.entries_of_program program in
      Ok
        (Dict
           {
             entries;
             idx_bits =
               Encoding.Dictionary.index_bits ~nentries:(Array.length entries);
           })
  | name -> (
      match List.assoc_opt name Encoding.Stream_huffman.configs with
      | Some config ->
          let books =
            Array.init config.Tepic.Field_stream.nstreams (fun s ->
                List.assoc_opt
                  (Printf.sprintf "stream%d" s)
                  sc.Encoding.Scheme.books)
          in
          Ok (Stream (config, books))
      | None -> Error (Printf.sprintf "unknown scheme %S" name))

let ( let* ) = Result.bind

(* Total dense-map lookup; raw fields (empty [to_old]) pass through. *)
let map_checked ~field (m : Encoding.Tailored.dense_map) idx =
  let n = Array.length m.Encoding.Tailored.to_old in
  if n = 0 then Ok idx
  else if idx >= 0 && idx < n then Ok m.Encoding.Tailored.to_old.(idx)
  else Error (Out_of_range { field; index = idx; size = n })

let read_bits r width =
  if width = 0 then Ok 0
  else
    match Bits.Reader.read_bits_opt r ~width with
    | Some v -> Ok v
    | None -> Error Truncated

let decode_tailored (spec : Encoding.Tailored.spec) r =
  let* tail = read_bits r 1 in
  let* sp =
    if spec.Encoding.Tailored.spec_bit then read_bits r 1 else Ok 0
  in
  let* optc = read_bits r 2 in
  let ty = Tepic.Opcode.optype_of_code optc in
  let* omap =
    match List.assoc_opt ty spec.Encoding.Tailored.opcode_maps with
    | Some m -> Ok m
    | None ->
        Error (Malformed "op type has no published opcode map")
  in
  let* oidx = read_bits r spec.Encoding.Tailored.opcode_bits in
  let* code = map_checked ~field:"OPCODE" omap oidx in
  let* opcode =
    match Tepic.Opcode.of_code ty code with
    | Some oc -> Ok oc
    | None -> Error (Malformed "undefined opcode point")
  in
  let kind = Tepic.Opcode.kind opcode in
  (* Pass 1: raw field bits — widths depend only on the format.  A field's
     register file can depend on the later TCS field, so buffer first,
     exactly like the reference decoder. *)
  let* raws =
    List.fold_left
      (fun acc (fd : Tepic.Format_spec.field) ->
        let* acc = acc in
        let name = fd.Tepic.Format_spec.fname in
        if List.mem name [ "T"; "S"; "OPT"; "OPCODE" ] then Ok acc
        else if Encoding.Tailored.is_reserved name then Ok ((name, 0) :: acc)
        else
          let width = Encoding.Tailored.field_width spec kind fd in
          let* v = read_bits r width in
          Ok ((name, v) :: acc))
      (Ok [])
      (Tepic.Format_spec.layout kind)
  in
  let raws = List.rev raws in
  let* tcs =
    match List.assoc_opt "TCS" raws with
    | Some raw ->
        map_checked ~field:"TCS" (Encoding.Tailored.field_map spec "TCS") raw
    | None -> Ok 0
  in
  let tbl = Hashtbl.create 17 in
  Hashtbl.replace tbl "T" tail;
  Hashtbl.replace tbl "S" sp;
  Hashtbl.replace tbl "OPT" (Tepic.Opcode.optype_code ty);
  Hashtbl.replace tbl "OPCODE" code;
  let* () =
    List.fold_left
      (fun acc (name, raw) ->
        let* () = acc in
        let* v =
          if Encoding.Tailored.is_reserved name then Ok 0
          else
            match Encoding.Tailored.reg_class_of_field opcode ~tcs name with
            | Some c ->
                map_checked ~field:name (Encoding.Tailored.reg_map spec c) raw
            | None ->
                if Encoding.Tailored.is_raw name then Ok raw
                else
                  map_checked ~field:name
                    (Encoding.Tailored.field_map spec name)
                    raw
        in
        Hashtbl.replace tbl name v;
        Ok ())
      (Ok ()) raws
  in
  match Tepic.Op.of_fields kind (Hashtbl.find tbl) with
  | op -> Ok [ op ]
  | exception Invalid_argument m -> Error (Malformed m)
  | exception Not_found -> Error (Malformed "tailored: field lookup failed")

(* [decode_step strategy r] — decode the smallest self-contained unit of
   the stream: one op for most schemes, an op sequence for a dictionary
   reference.  Total: every malformation comes back as [Error]. *)
let decode_step strategy r =
  match strategy with
  | Base -> (
      if Bits.Reader.remaining r < Tepic.Format_spec.op_bits then
        Error Truncated
      else
        match Tepic.Encode.decode r with
        | op -> Ok [ op ]
        | exception Invalid_argument m -> Error (Malformed m)
        | exception Failure m -> Error (Malformed m))
  | Byte book ->
      let nb = Tepic.Format_spec.op_bytes in
      let buf = Bytes.create nb in
      let rec go j =
        if j = nb then
          match Tepic.Encode.decode_ops ~count:1 (Bytes.to_string buf) with
          | [ op ] -> Ok [ op ]
          | _ -> Error (Malformed "byte: decode returned wrong arity")
          | exception Invalid_argument m -> Error (Malformed m)
          | exception Failure m -> Error (Malformed m)
        else
          match Huffman.Codebook.read_opt book r with
          | None -> Error (Off_table "byte")
          | Some sym ->
              Bytes.set buf j (Char.chr (sym land 0xff));
              go (j + 1)
      in
      go 0
  | Stream (config, books) -> (
      let read_sym s =
        let name = Printf.sprintf "stream%d" s in
        match books.(s) with
        | None -> Error (Off_table name)
        | Some b -> (
            match Huffman.Codebook.read_opt b r with
            | None -> Error (Off_table name)
            | Some sym -> Ok (Encoding.Stream_huffman.unpack sym))
      in
      let* v0, w0 = read_sym 0 in
      match Tepic.Field_stream.kind_of_stream0 config ~value:v0 ~width:w0 with
      | exception Invalid_argument m -> Error (Malformed m)
      | kind ->
          let ns = config.Tepic.Field_stream.nstreams in
          let widths = Tepic.Field_stream.widths config kind in
          let values = Array.make ns 0 in
          values.(0) <- v0;
          let rec go s =
            if s = ns then
              match Tepic.Field_stream.op_of_symbols config kind values with
              | op -> Ok [ op ]
              | exception Invalid_argument m -> Error (Malformed m)
            else if widths.(s) = 0 then go (s + 1)
            else
              let* v, w = read_sym s in
              if w <> widths.(s) then
                Error
                  (Malformed
                     (Printf.sprintf
                        "stream%d symbol is %d bits, format wants %d" s w
                        widths.(s)))
              else begin
                values.(s) <- v;
                go (s + 1)
              end
          in
          go 1)
  | Full book -> (
      match Huffman.Codebook.read_opt book r with
      | None -> Error (Off_table "full")
      | Some sym -> (
          match Tepic.Encode.of_int sym with
          | op -> Ok [ op ]
          | exception Invalid_argument m -> Error (Malformed m)))
  | Tailored_isa spec -> decode_tailored spec r
  | Dict { entries; idx_bits } -> (
      match Bits.Reader.read_bit_opt r with
      | None -> Error Truncated
      | Some true -> (
          match Bits.Reader.read_bits_opt r ~width:idx_bits with
          | None -> Error Truncated
          | Some idx ->
              if idx >= Array.length entries then
                Error
                  (Out_of_range
                     {
                       field = "DICT";
                       index = idx;
                       size = Array.length entries;
                     })
              else (
                match List.map Tepic.Encode.of_int entries.(idx) with
                | ops -> Ok ops
                | exception Invalid_argument m -> Error (Malformed m)))
      | Some false -> (
          match
            Bits.Reader.read_bits_opt r ~width:Tepic.Format_spec.op_bits
          with
          | None -> Error Truncated
          | Some v -> (
              match Tepic.Encode.of_int v with
              | op -> Ok [ op ]
              | exception Invalid_argument m -> Error (Malformed m))))

(* Codewords consumed by one decode step, the unit of the
   resynchronization-distance analysis. *)
let codewords_of_step strategy ops =
  match strategy with
  | Byte _ -> Tepic.Format_spec.op_bytes * List.length ops
  | Stream (config, _) ->
      List.fold_left
        (fun a op ->
          let widths =
            Tepic.Field_stream.widths config (Tepic.Op.kind op)
          in
          Array.fold_left (fun a w -> if w > 0 then a + 1 else a) 0 widths + a)
        0 ops
  | Base | Full _ | Tailored_isa _ | Dict _ -> List.length ops

(* One recovered decode step: [bit] is where it started. *)
type step = { bit : int; ops : Tepic.Op.t list }

type block = {
  index : int;
  start_bit : int;  (** recovered block start (byte-aligned) *)
  payload_start : int;  (** after the frame's length field, if any *)
  payload_end : int;  (** after the last op, before the guard word *)
  end_bit : int;  (** after the guard word, if any *)
  steps : step list;
  ops : Tepic.Op.t list;
}

(* [decode_block strategy ~frame r ~index ~start ~op_count] — decode one
   block of [op_count] ops starting at bit [start], returning the
   recovered extents, or the bit position and cause of the first
   failure.  The frame's guard word is skipped, not checked — the
   caller validates it independently of op decode (see Image_check). *)
let decode_block strategy ~(frame : Encoding.Scheme.frame) r ~index ~start
    ~op_count =
  match Bits.Reader.seek r start with
  | exception Invalid_argument _ -> Error (start, Truncated)
  | () ->
      let* () =
        if frame.Encoding.Scheme.len_bits = 0 then Ok ()
        else
          match
            Bits.Reader.read_bits_opt r ~width:frame.Encoding.Scheme.len_bits
          with
          | Some _ -> Ok ()
          | None -> Error (start, Truncated)
      in
      let payload_start = Bits.Reader.pos r in
      let rec go n steps acc =
        if n >= op_count then Ok (List.rev steps, List.rev acc)
        else
          let bit = Bits.Reader.pos r in
          match decode_step strategy r with
          | Error e -> Error (bit, e)
          | Ok ops ->
              go
                (n + List.length ops)
                ({ bit; ops } :: steps)
                (List.rev_append ops acc)
      in
      let* steps, ops = go 0 [] [] in
      let payload_end = Bits.Reader.pos r in
      let* () =
        if frame.Encoding.Scheme.guard_bits = 0 then Ok ()
        else
          match
            Bits.Reader.read_bits_opt r
              ~width:frame.Encoding.Scheme.guard_bits
          with
          | Some _ -> Ok ()
          | None -> Error (payload_end, Truncated)
      in
      Ok
        {
          index;
          start_bit = start;
          payload_start;
          payload_end;
          end_bit = Bits.Reader.pos r;
          steps;
          ops;
        }
