(* Bit-level substrate tests. *)

let check = Alcotest.(check int)

let test_writer_reader_basic () =
  let w = Bits.Writer.create () in
  Bits.Writer.add_bits w ~width:4 0b1010;
  Bits.Writer.add_bits w ~width:1 1;
  Bits.Writer.add_bits w ~width:11 0b10110011101;
  check "length" 16 (Bits.Writer.length w);
  let r = Bits.Reader.of_string (Bits.Writer.contents w) in
  check "first" 0b1010 (Bits.Reader.read_bits r ~width:4);
  check "bit" 1 (Bits.Reader.read_bits r ~width:1);
  check "rest" 0b10110011101 (Bits.Reader.read_bits r ~width:11);
  check "pos" 16 (Bits.Reader.pos r)

let test_msb_first () =
  let w = Bits.Writer.create () in
  Bits.Writer.add_bits w ~width:8 0b10000001;
  let s = Bits.Writer.contents w in
  check "byte value" 0x81 (Char.code s.[0])

let test_align_byte () =
  let w = Bits.Writer.create () in
  Bits.Writer.add_bits w ~width:3 0b101;
  let pad = Bits.Writer.align_byte w in
  check "pad" 5 pad;
  check "aligned length" 8 (Bits.Writer.length w);
  check "no pad when aligned" 0 (Bits.Writer.align_byte w)

let test_seek () =
  let w = Bits.Writer.create () in
  Bits.Writer.add_bits w ~width:16 0xABCD;
  let r = Bits.Reader.of_string (Bits.Writer.contents w) in
  Bits.Reader.seek r 8;
  check "after seek" 0xCD (Bits.Reader.read_bits r ~width:8);
  Bits.Reader.seek r 4;
  check "nibble" 0xB (Bits.Reader.read_bits r ~width:4)

let test_writer_growth () =
  let w = Bits.Writer.create ~initial_bytes:1 () in
  for i = 0 to 999 do
    Bits.Writer.add_bits w ~width:13 (i land 0x1FFF)
  done;
  check "grown length" 13000 (Bits.Writer.length w);
  let r = Bits.Reader.of_string (Bits.Writer.contents w) in
  for i = 0 to 999 do
    check "roundtrip value" (i land 0x1FFF) (Bits.Reader.read_bits r ~width:13)
  done

let test_bounds () =
  let w = Bits.Writer.create () in
  Alcotest.check_raises "width too large" (Invalid_argument "Bits.Writer.add_bits: width out of range")
    (fun () -> Bits.Writer.add_bits w ~width:63 0);
  Alcotest.check_raises "value too wide"
    (Invalid_argument "Bits.Writer.add_bits: value does not fit width")
    (fun () -> Bits.Writer.add_bits w ~width:3 8);
  let r = Bits.Reader.of_string "" in
  Alcotest.check_raises "exhausted reader"
    (Invalid_argument "Bits.Reader.read_bit: exhausted at bit 0/0") (fun () ->
      ignore (Bits.Reader.read_bit r))

let test_popcount () =
  check "zero" 0 (Bits.popcount 0);
  check "one" 1 (Bits.popcount 1);
  check "0xFF" 8 (Bits.popcount 0xFF);
  check "alternating" 16 (Bits.popcount 0xAAAAAAAA)

(* The word-parallel popcount against the bit loop it replaced. *)
let popcount_loop v =
  let rec go v acc = if v = 0 then acc else go (v lsr 1) (acc + (v land 1)) in
  go v 0

let test_popcount_vs_loop () =
  List.iter
    (fun v -> check (Printf.sprintf "popcount %#x" v) (popcount_loop v)
        (Bits.popcount v))
    ([ 0; max_int ]
    @ List.init 62 (fun k -> 1 lsl k)
    @ List.init 62 (fun k -> (1 lsl k) - 1));
  List.iter
    (fun v ->
      Alcotest.check_raises "negative"
        (Invalid_argument "Bits.popcount: negative") (fun () ->
          ignore (Bits.popcount v)))
    [ -1; min_int; -(1 lsl 40) ]

let prop_popcount_vs_loop =
  QCheck.Test.make ~name:"popcount = bit loop" ~count:1000
    QCheck.(map (fun v -> v land max_int) int)
    (fun v -> Bits.popcount v = popcount_loop v)

let test_bits_needed () =
  check "0" 0 (Bits.bits_needed 0);
  check "1" 1 (Bits.bits_needed 1);
  check "2" 1 (Bits.bits_needed 2);
  check "3" 2 (Bits.bits_needed 3);
  check "4" 2 (Bits.bits_needed 4);
  check "5" 3 (Bits.bits_needed 5);
  check "256" 8 (Bits.bits_needed 256);
  check "257" 9 (Bits.bits_needed 257)

let test_flips () =
  check "same" 0 (Bits.flips_between 0xF0F0 0xF0F0);
  check "all differ" 8 (Bits.flips_between 0xFF 0x00);
  check "one" 1 (Bits.flips_between 0b100 0b110)

(* Property: any sequence of (width, value) writes reads back exactly. *)
let prop_roundtrip =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 200)
        (int_range 1 30 >>= fun w ->
         int_bound ((1 lsl w) - 1) >>= fun v -> return (w, v)))
  in
  QCheck.Test.make ~name:"writer/reader roundtrip" ~count:200
    (QCheck.make gen) (fun fields ->
      let w = Bits.Writer.create () in
      List.iter (fun (width, v) -> Bits.Writer.add_bits w ~width v) fields;
      let r = Bits.Reader.of_string (Bits.Writer.contents w) in
      List.for_all (fun (width, v) -> Bits.Reader.read_bits r ~width = v) fields)

(* Random field lists over the full legal width range 0-62.  Width-0
   fields are legal no-ops (value must be 0) and must read back as 0. *)
let gen_fields =
  QCheck.Gen.(
    list_size (int_range 1 100)
      (int_range 0 62 >>= fun w ->
       (if w = 0 then return 0
        else if w >= 62 then int_range 0 max_int
        else int_bound ((1 lsl w) - 1))
       >>= fun v -> return (w, v)))

let prop_roundtrip_full_range =
  QCheck.Test.make ~name:"roundtrip over widths 0-62" ~count:200
    (QCheck.make gen_fields) (fun fields ->
      let w = Bits.Writer.create () in
      List.iter (fun (width, v) -> Bits.Writer.add_bits w ~width v) fields;
      let total = List.fold_left (fun a (width, _) -> a + width) 0 fields in
      let r = Bits.Reader.of_string (Bits.Writer.contents w) in
      Bits.Writer.length w = total
      && List.for_all
           (fun (width, v) -> Bits.Reader.read_bits r ~width = v)
           fields
      && Bits.Reader.pos r = total)

(* align_byte pads to the next byte boundary with zero bits, returns the
   pad count, and is idempotent. *)
let prop_align_byte =
  QCheck.Test.make ~name:"align_byte padding invariants" ~count:200
    (QCheck.make gen_fields) (fun fields ->
      let w = Bits.Writer.create () in
      List.iter (fun (width, v) -> Bits.Writer.add_bits w ~width v) fields;
      let len = Bits.Writer.length w in
      let pad = Bits.Writer.align_byte w in
      let expected = (8 - (len mod 8)) mod 8 in
      let aligned = Bits.Writer.length w in
      let r = Bits.Reader.of_string (Bits.Writer.contents w) in
      Bits.Reader.seek r len;
      let pad_bits = Bits.Reader.read_bits r ~width:pad in
      pad = expected
      && aligned = len + pad
      && aligned mod 8 = 0
      && Bits.Writer.align_byte w = 0
      && pad_bits = 0)

(* Seeking back to any field start re-reads the same value, and
   [remaining] always complements [pos]. *)
let prop_seek_remaining =
  QCheck.Test.make ~name:"seek/remaining invariants" ~count:200
    (QCheck.make gen_fields) (fun fields ->
      let w = Bits.Writer.create () in
      List.iter (fun (width, v) -> Bits.Writer.add_bits w ~width v) fields;
      let r = Bits.Reader.of_string (Bits.Writer.contents w) in
      let total_len = Bits.Reader.length r in
      let offset = ref 0 in
      let starts =
        List.map
          (fun (width, v) ->
            let s = !offset in
            offset := s + width;
            (s, width, v))
          fields
      in
      (* Walk the fields in reverse via seek. *)
      List.for_all
        (fun (s, width, v) ->
          Bits.Reader.seek r s;
          Bits.Reader.remaining r = total_len - s
          && Bits.Reader.read_bits r ~width = v
          && Bits.Reader.pos r = s + width)
        (List.rev starts))

(* The word-wise decode idiom law: [peek_bits] reads what [read_bits]
   would, without moving the cursor, and [advance] then consumes it.
   Past the end of the stream peeked bits are zero, i.e. the result is
   the remaining bits left-shifted into the high positions. *)
let prop_peek_advance_vs_read =
  let gen =
    QCheck.Gen.(
      triple
        (list_size (int_range 0 40) (int_range 0 255))
        (int_range 0 56) (int_range 0 500))
  in
  QCheck.Test.make ~name:"peek_bits/advance = read_bits incl. zero padding"
    ~count:500 (QCheck.make gen) (fun (bytes, width, posr) ->
      let arr = Array.of_list bytes in
      let s = String.init (Array.length arr) (fun i -> Char.chr arr.(i)) in
      let r = Bits.Reader.of_string s in
      let len = Bits.Reader.length r in
      let p = posr mod (len + 1) in
      Bits.Reader.seek r p;
      let peeked = Bits.Reader.peek_bits r ~width in
      let unmoved = Bits.Reader.pos r = p in
      (* Reference: bit-serial read of the in-stream part, zero-padded. *)
      let avail = min width (len - p) in
      let r2 = Bits.Reader.of_string s in
      Bits.Reader.seek r2 p;
      let v = ref 0 in
      for _ = 1 to avail do
        v := (!v lsl 1) lor (if Bits.Reader.read_bit r2 then 1 else 0)
      done;
      let expect = !v lsl (width - avail) in
      Bits.Reader.advance r avail;
      unmoved && peeked = expect && Bits.Reader.pos r = p + avail)

(* The 256-entry CRC byte tables are derived from the bitwise register;
   this keeps them honest: of_string and of_reader (started at any bit
   offset, covering the align/table/tail path split) must equal a pure
   bit-at-a-time fold of update. *)
let prop_crc_table_vs_bitwise =
  let gen =
    QCheck.Gen.(
      pair (list_size (int_range 0 48) (int_range 0 255)) (int_range 0 23))
  in
  QCheck.Test.make ~name:"table CRC = bitwise register (string and reader)"
    ~count:300 (QCheck.make gen) (fun (bytes, skip) ->
      let arr = Array.of_list bytes in
      let s = String.init (Array.length arr) (fun i -> Char.chr arr.(i)) in
      let total = 8 * String.length s in
      let skip = if total = 0 then 0 else skip mod total in
      List.for_all
        (fun (width, poly) ->
          let bitwise from nbits =
            let r = Bits.Reader.of_string s in
            Bits.Reader.seek r from;
            let crc = ref 0 in
            for _ = 1 to nbits do
              crc := Bits.Crc.update ~width ~poly !crc (Bits.Reader.read_bit r)
            done;
            !crc
          in
          let whole = Bits.Crc.of_string ~width ~poly s in
          let r = Bits.Reader.of_string s in
          Bits.Reader.seek r skip;
          let tail = Bits.Crc.of_reader ~width ~poly r ~nbits:(total - skip) in
          whole = bitwise 0 total
          && tail = bitwise skip (total - skip)
          && Bits.Reader.pos r = total)
        [ (8, Bits.Crc.crc8_poly); (16, Bits.Crc.crc16_poly) ])

let prop_bits_needed_sufficient =
  QCheck.Test.make ~name:"bits_needed covers the range" ~count:500
    QCheck.(int_range 1 1_000_000)
    (fun n ->
      let w = Bits.bits_needed n in
      1 lsl w >= n && (w = 1 || 1 lsl (w - 1) < n))

(* The word-wise kernels against bit loops.  Writer.add_bits ORs most
   fields in with one 64-bit load/store, and Reader.peek_bits reads wide
   fields with one 64-bit load: both must equal add_bit / read_bit loops
   at every bit offset 0-7, every width, and every distance from the end
   of the buffer — a writer grown from one byte, a reader over strings of
   1 to 17 bytes (the zero-padded tail law included). *)
let random_bits rng width =
  let v =
    (Random.State.bits rng lsl 60)
    lxor (Random.State.bits rng lsl 30)
    lxor Random.State.bits rng
  in
  if width >= 62 then v land max_int else v land ((1 lsl width) - 1)

let test_word_kernels_vs_bit_loops () =
  let rng = Random.State.make [| 40 |] in
  for off = 0 to 7 do
    for width = 1 to 62 do
      let ones = if width = 62 then max_int else (1 lsl width) - 1 in
      List.iter
        (fun v ->
          for lead_bytes = 0 to 9 do
            let w = Bits.Writer.create ~initial_bytes:1 () in
            let expect = Bits.Writer.create ~initial_bytes:1 () in
            for _ = 1 to (8 * lead_bytes) + off do
              let b = Random.State.bool rng in
              Bits.Writer.add_bit w b;
              Bits.Writer.add_bit expect b
            done;
            Bits.Writer.add_bits w ~width v;
            Bits.Writer.add_bits w ~width:3 0b101;
            for k = width - 1 downto 0 do
              Bits.Writer.add_bit expect ((v lsr k) land 1 = 1)
            done;
            List.iter (Bits.Writer.add_bit expect) [ true; false; true ];
            let label =
              Printf.sprintf "add_bits off=%d width=%d lead=%d" off width
                lead_bytes
            in
            check (label ^ " length") (Bits.Writer.length expect)
              (Bits.Writer.length w);
            Alcotest.(check string) label (Bits.Writer.contents expect)
              (Bits.Writer.contents w)
          done)
        [ ones; random_bits rng width ]
    done
  done;
  for len = 1 to 17 do
    let s = String.init len (fun _ -> Char.chr (Random.State.int rng 256)) in
    let nbits = 8 * len in
    for pos = 0 to nbits do
      let serial width =
        let r = Bits.Reader.of_string s in
        Bits.Reader.seek r pos;
        let avail = min width (nbits - pos) in
        let v = ref 0 in
        for _ = 1 to avail do
          v := (!v lsl 1) lor if Bits.Reader.read_bit r then 1 else 0
        done;
        !v lsl (width - avail)
      in
      let r = Bits.Reader.of_string s in
      for width = 1 to 62 do
        Bits.Reader.seek r pos;
        let label = Printf.sprintf "len=%d pos=%d width=%d" len pos width in
        if width <= 56 then
          check ("peek_bits " ^ label) (serial width)
            (Bits.Reader.peek_bits r ~width);
        if width <= nbits - pos then begin
          check ("read_bits " ^ label) (serial width)
            (Bits.Reader.read_bits r ~width);
          check ("read_bits cursor " ^ label) (pos + width) (Bits.Reader.pos r)
        end
      done
    done
  done

let suite =
  [
    Alcotest.test_case "writer/reader basic" `Quick test_writer_reader_basic;
    Alcotest.test_case "MSB-first layout" `Quick test_msb_first;
    Alcotest.test_case "byte alignment" `Quick test_align_byte;
    Alcotest.test_case "seek" `Quick test_seek;
    Alcotest.test_case "buffer growth" `Quick test_writer_growth;
    Alcotest.test_case "bounds checking" `Quick test_bounds;
    Alcotest.test_case "popcount" `Quick test_popcount;
    Alcotest.test_case "popcount = bit loop at edges" `Quick
      test_popcount_vs_loop;
    Alcotest.test_case "bits_needed" `Quick test_bits_needed;
    Alcotest.test_case "flips_between" `Quick test_flips;
    Alcotest.test_case "word kernels = bit loops" `Quick
      test_word_kernels_vs_bit_loops;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_roundtrip_full_range;
    QCheck_alcotest.to_alcotest prop_align_byte;
    QCheck_alcotest.to_alcotest prop_seek_remaining;
    QCheck_alcotest.to_alcotest prop_peek_advance_vs_read;
    QCheck_alcotest.to_alcotest prop_crc_table_vs_bitwise;
    QCheck_alcotest.to_alcotest prop_bits_needed_sufficient;
    QCheck_alcotest.to_alcotest prop_popcount_vs_loop;
  ]
