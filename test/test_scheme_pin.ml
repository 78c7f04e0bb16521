(* The scheme pin: what every scheme build produces for every suite
   program, at none, crc8 and crc16.  One line per (program, scheme,
   framing) holds code_bits, table_bits and the framing overhead, the four
   decoder_info fields, each codebook's entry count, longest code and
   training payload bits, and the MD5s of the image, the block offsets and
   the block sizes — for dict, also of the dictionary entries.  The lines
   are compared with fixtures/scheme_pin.txt.  An intended encoding change
   updates that file by hand from the lines this test prints on a
   mismatch. *)

module Scheme = Encoding.Scheme

let md5 s = Digest.to_hex (Digest.string s)

let ints a = String.concat "," (Array.to_list (Array.map string_of_int a))

let book_summary (name, book) =
  let st = Huffman.Codebook.stats book in
  Printf.sprintf "%s:%d/%d/%d" name st.Huffman.Codebook.entries
    st.Huffman.Codebook.max_code_len st.Huffman.Codebook.payload_bits

let pin_line program name ?entries sc =
  let d = sc.Scheme.decoder in
  Printf.sprintf
    "%s %s %s code=%d table=%d prot=%d dec=%d/%d/%d/%d books=%s image=%s \
     offs=%s sizes=%s%s"
    program name
    (Scheme.protection_name sc.Scheme.frame.Scheme.protection)
    sc.Scheme.code_bits sc.Scheme.table_bits
    sc.Scheme.frame.Scheme.protection_bits d.Scheme.dict_entries
    d.Scheme.max_code_bits d.Scheme.entry_bits d.Scheme.transistors
    (match sc.Scheme.books with
    | [] -> "-"
    | books -> String.concat "," (List.map book_summary books))
    (md5 sc.Scheme.image)
    (md5 (ints sc.Scheme.block_offset_bits))
    (md5 (ints sc.Scheme.block_bits))
    (match entries with None -> "" | Some e -> " entries=" ^ md5 e)

let dict_entries prog =
  Encoding.Dictionary.entries_of_program prog
  |> Array.to_list
  |> List.map (fun seq -> String.concat "," (List.map string_of_int seq))
  |> String.concat ";"

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let test_pin () =
  let got =
    List.concat_map
      (fun (e : Workloads.Suite.entry) ->
        let r = Cccs.Workload_run.load e in
        let prog = r.Cccs.Workload_run.compiled.Cccs.Pipeline.program in
        let s = Cccs.Experiments.schemes_of r in
        List.concat_map
          (fun (name, sc) ->
            let entries =
              if name = "dict" then Some (dict_entries prog) else None
            in
            List.map
              (fun p -> pin_line e.name name ?entries (Scheme.protect p sc))
              Scheme.[ Unprotected; Crc8; Crc16 ])
          (Cccs.Experiments.every_scheme s))
      Workloads.Suite.all
  in
  if got <> read_lines "fixtures/scheme_pin.txt" then begin
    List.iter print_endline got;
    Alcotest.fail
      "scheme builds differ from fixtures/scheme_pin.txt; this run's lines \
       are printed above"
  end

let suite = [ Alcotest.test_case "scheme builds = fixture" `Quick test_pin ]
