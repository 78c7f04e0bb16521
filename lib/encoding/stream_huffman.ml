let max_code_len = 13

(* Packed stream symbols carry their width so that, e.g., a 10-bit zero and
   a 13-bit zero are distinct dictionary entries. *)
let value_bits = 42
let value_mask = (1 lsl value_bits) - 1
let pack ~value ~width = value lor (width lsl value_bits)
let unpack sym = (sym land value_mask, sym lsr value_bits)

(* Transcoder plan of one format (see [build]). *)
type plan = { widths : int array; scatter : int array array }

(* OR a symbol's fields into the baseline word at their image positions,
   following one stream's [Field_stream.scatter] triples. *)
let place word sym sc =
  let word = ref word in
  let j = ref 0 in
  while !j < Array.length sc do
    word :=
      !word
      lor (((sym lsr Array.unsafe_get sc !j) land Array.unsafe_get sc (!j + 1))
          lsl Array.unsafe_get sc (!j + 2));
    j := !j + 3
  done;
  !word

let mk name nstreams assign =
  {
    Tepic.Field_stream.name;
    nstreams;
    stream_of_field =
      (fun f ->
        match f with
        | "T" | "S" | "OPT" | "OPCODE" -> 0
        | _ -> assign f);
  }

let sources = function "SRC1" | "SRC2" | "IMM" -> true | _ -> false
let dests = function "DEST" -> true | _ -> false

(* Figure 3's four-stream split: prefix / sources / middle / destination. *)
let classic =
  mk "stream" 4 (fun f ->
      if sources f then 1 else if dests f || f = "L1" || f = "PRED" then 3
      else 2)

(* Finer split that isolates the near-constant predicate field. *)
let fine =
  mk "stream_1" 5 (fun f ->
      if sources f then 1
      else if dests f then 2
      else if f = "PRED" || f = "L1" then 3
      else 4)

let two = mk "stream_2" 2 (fun _ -> 1)

let grouped_regs =
  mk "stream_3" 3 (fun f -> if sources f || dests f then 1 else 2)

let pred_in_prefix =
  mk "stream_4" 4 (fun f ->
      if f = "PRED" then 0 else if sources f then 1 else if dests f then 2
      else 3)

let per_field =
  mk "stream_5" 6 (fun f ->
      if f = "SRC1" then 1
      else if f = "SRC2" || f = "IMM" then 2
      else if dests f then 3
      else if f = "PRED" then 4
      else 5)

let configs =
  [
    ("stream", classic);
    ("stream_1", fine);
    ("stream_2", two);
    ("stream_3", grouped_regs);
    ("stream_4", pred_in_prefix);
    ("stream_5", per_field);
  ]

let () =
  List.iter (fun (_, c) -> Tepic.Field_stream.validate c) configs

let build ?(config = classic) program =
  Tepic.Field_stream.validate config;
  let ns = config.Tepic.Field_stream.nstreams in
  (* The plan per OPT|OPCODE point, through Encode's point table: for the
     op's format, the symbol width of each stream and where each stream's
     fields sit in the baseline word.  The encoder gathers each symbol out
     of the word with the triples the decoder scatters it back with. *)
  let plans =
    Array.init 128 (fun p ->
        Option.map
          (fun kind ->
            {
              widths = Tepic.Field_stream.widths config kind;
              scatter = Tepic.Field_stream.scatter config kind;
            })
          (Tepic.Encode.point_kind p))
  in
  let op_bits = Tepic.Format_spec.op_bits
  and prefix_bits = Tepic.Format_spec.prefix_bits in
  (* [f s sym] on each live stream's packed symbol of [word]. *)
  let iter_symbols f word =
    let plan = Option.get plans.((word lsr (op_bits - prefix_bits)) land 0x7f) in
    for s = 0 to ns - 1 do
      let width = plan.widths.(s) in
      if width > 0 then
        f s
          (pack ~value:(Tepic.Field_stream.gather plan.scatter.(s) word) ~width)
    done
  in
  let words = Tepic.Program.words program in
  let freqs = Array.init ns (fun _ -> Huffman.Freq.create ()) in
  Array.iter
    (Array.iter (iter_symbols (fun s sym -> Huffman.Freq.add freqs.(s) sym)))
    words;
  let books =
    Array.map
      (fun freq ->
        if Huffman.Freq.total freq = 0 then None
        else
          Some
            (Huffman.Codebook.make ~max_len:max_code_len
               ~symbol_bits:(fun sym -> snd (unpack sym))
               freq))
      freqs
  in
  let book s = match books.(s) with Some b -> b | None -> assert false in
  let image, offsets, sizes =
    Scheme.build_blocks words (fun w ws ->
        Array.iter
          (iter_symbols (fun s sym -> Huffman.Codebook.write (book s) w sym))
          ws)
  in
  let counts = Array.map Array.length words in
  (* Field_stream.kind_of_stream0's checks on the stream-0 symbol, with
     its messages, then the width check per stream.  The assembled word's
     OPT|OPCODE point is the one the plan was picked by: every stream-0
     codebook symbol is a real op's, so its width is its format's. *)
  let transcode_payload r w i =
    for _ = 1 to counts.(i) do
      let sym0 = Huffman.Codebook.read (book 0) r in
      let v0 = sym0 land value_mask and w0 = sym0 lsr value_bits in
      if w0 < prefix_bits then
        invalid_arg "Field_stream.kind_of_stream0: symbol narrower than prefix";
      match plans.((v0 lsr (w0 - prefix_bits)) land 0x7f) with
      | None -> invalid_arg "Field_stream.kind_of_stream0: undefined opcode"
      | Some plan ->
          let word = ref (place 0 v0 plan.scatter.(0)) in
          for s = 1 to ns - 1 do
            let width = plan.widths.(s) in
            if width > 0 then begin
              let sym = Huffman.Codebook.read (book s) r in
              if sym lsr value_bits <> width then
                failwith "Stream_huffman: decoded symbol width mismatch";
              word := place !word (sym land value_mask) plan.scatter.(s)
            end
          done;
          Bits.Writer.add_bits w ~width:op_bits (Tepic.Encode.normalize !word)
    done
  in
  let live_books =
    Array.to_list books |> List.filter_map (fun b -> b)
  in
  let stat b = Huffman.Codebook.stats b in
  let table_bits =
    List.fold_left (fun a b -> a + (stat b).Huffman.Codebook.table_bits) 0 live_books
  in
  {
    Scheme.name = config.Tepic.Field_stream.name;
    image;
    code_bits = 8 * String.length image;
    table_bits;
    block_offset_bits = offsets;
    block_bits = sizes;
    frame = Scheme.no_frame;
    decoder =
      {
        dict_entries =
          List.fold_left (fun a b -> a + (stat b).Huffman.Codebook.entries) 0 live_books;
        max_code_bits =
          List.fold_left (fun a b -> max a (stat b).Huffman.Codebook.max_code_len) 0 live_books;
        entry_bits =
          List.fold_left
            (fun a b -> max a (stat b).Huffman.Codebook.max_symbol_bits)
            0 live_books;
        transistors =
          List.fold_left
            (fun a b -> a + Huffman.Codebook.decoder_transistors b)
            0 live_books;
      };
    books =
      (let named = ref [] in
       Array.iteri
         (fun s b ->
           match b with
           | Some book ->
               named := (Printf.sprintf "stream%d" s, book) :: !named
           | None -> ())
         books;
       List.rev !named);
    (* One codeword per live stream per op (a zero-width field reads
       nothing, but its stream may still serve other formats). *)
    model =
      (let srcs = ref [] in
       Array.iteri
         (fun s b ->
           match b with
           | Some _ ->
               srcs :=
                 Scheme.Book_codewords
                   { book = Printf.sprintf "stream%d" s; max_per_op = 1 }
                 :: !srcs
           | None -> ())
         books;
       List.rev !srcs);
    transcode_payload;
  }
