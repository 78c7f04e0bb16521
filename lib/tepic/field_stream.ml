type t = {
  name : string;
  nstreams : int;
  stream_of_field : string -> int;
}

let prefix_names = [ "T"; "S"; "OPT"; "OPCODE" ]

let validate t =
  if t.nstreams < 1 then invalid_arg "Field_stream: nstreams < 1";
  List.iter
    (fun name ->
      let s = t.stream_of_field name in
      if s < 0 || s >= t.nstreams then
        invalid_arg
          (Printf.sprintf "Field_stream %s: field %s maps to stream %d" t.name
             name s))
    Format_spec.all_field_names;
  List.iter
    (fun name ->
      if t.stream_of_field name <> 0 then
        invalid_arg
          (Printf.sprintf
             "Field_stream %s: prefix field %s must be in stream 0" t.name name))
    prefix_names

(* Fields of [kind] belonging to each stream, in layout order. *)
let stream_fields t kind =
  let per = Array.make t.nstreams [] in
  List.iter
    (fun fd ->
      let s = t.stream_of_field fd.Format_spec.fname in
      per.(s) <- fd :: per.(s))
    (Format_spec.layout kind);
  Array.map List.rev per

let widths t kind =
  stream_fields t kind
  |> Array.map (List.fold_left (fun a fd -> a + fd.Format_spec.width) 0)

let symbols t op =
  let per = stream_fields t (Op.kind op) in
  Array.map
    (fun fds ->
      List.fold_left
        (fun (v, w) fd ->
          let fv = Op.field_value op fd.Format_spec.fname in
          ((v lsl fd.Format_spec.width) lor fv, w + fd.Format_spec.width))
        (0, 0) fds)
    per

let op_of_symbols t kind values =
  if Array.length values <> t.nstreams then
    invalid_arg "Field_stream.op_of_symbols: wrong stream count";
  let per = stream_fields t kind in
  let tbl = Hashtbl.create 17 in
  Array.iteri
    (fun s fds ->
      let total = List.fold_left (fun a fd -> a + fd.Format_spec.width) 0 fds in
      let consumed = ref 0 in
      List.iter
        (fun fd ->
          let shift = total - !consumed - fd.Format_spec.width in
          let mask = (1 lsl fd.Format_spec.width) - 1 in
          Hashtbl.replace tbl fd.Format_spec.fname ((values.(s) lsr shift) land mask);
          consumed := !consumed + fd.Format_spec.width)
        fds)
    per;
  Op.of_fields kind (Hashtbl.find tbl)

let scatter t kind =
  let image_shift = Hashtbl.create 17 in
  ignore
    (List.fold_left
       (fun left fd ->
         let left = left - fd.Format_spec.width in
         Hashtbl.replace image_shift fd.Format_spec.fname left;
         left)
       Format_spec.op_bits (Format_spec.layout kind));
  Array.map
    (fun fds ->
      let total = List.fold_left (fun a fd -> a + fd.Format_spec.width) 0 fds in
      let consumed = ref 0 in
      Array.concat
        (List.map
           (fun fd ->
             let width = fd.Format_spec.width in
             consumed := !consumed + width;
             [|
               total - !consumed;
               (1 lsl width) - 1;
               Hashtbl.find image_shift fd.Format_spec.fname;
             |])
           fds))
    (stream_fields t kind)

let gather sc word =
  let sym = ref 0 and j = ref 0 in
  while !j < Array.length sc do
    sym :=
      !sym
      lor (((word lsr Array.unsafe_get sc (!j + 2)) land Array.unsafe_get sc (!j + 1))
          lsl Array.unsafe_get sc !j);
    j := !j + 3
  done;
  !sym

let kind_of_stream0 _t ~value ~width =
  (* Every format lays out T(1) S(1) OPT(2) OPCODE(5) first and validation
     pins those fields to stream 0, so in any configuration the stream-0
     symbol starts with the 9-bit prefix at its MSB end, whatever trailing
     fields the format contributes. *)
  if width < Format_spec.prefix_bits then
    invalid_arg "Field_stream.kind_of_stream0: symbol narrower than prefix";
  let opt_code = (value lsr (width - 4)) land 3 in
  let opcode_code = (value lsr (width - 9)) land 31 in
  let opt = Opcode.optype_of_code opt_code in
  match Opcode.of_code opt opcode_code with
  | Some oc -> Opcode.kind oc
  | None -> invalid_arg "Field_stream.kind_of_stream0: undefined opcode"
