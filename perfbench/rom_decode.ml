(* Workload [rom-decode]: the `cccs decode` path.  Four mid-sized SPEC-like
   programs (gcc is left out: its certificate alone takes over ten seconds),
   every scheme of the study, each unprotected, crc8- and crc16-framed: 132
   images, every one decoded at [jobs] and compared with the baseline image
   [Tepic.Program.baseline_image] builds straight from the program.

   The cold pass decodes each image once, in a domain that has not decoded
   it before, so the decoding certificate is paid as a `cccs decode` user
   pays it.  The warm pass repeats the decodes with the certificates
   memoized.  Program loading and scheme building are set-up: the compiler
   and the simulator are bypassed in the timed phase. *)

let programs = [ "compress"; "go"; "ijpeg"; "m88ksim" ]

let protections =
  Encoding.Scheme.[ Unprotected; Crc8; Crc16 ]

type image = {
  label : string;  (** program/scheme/protection *)
  scheme : Encoding.Scheme.t;
  truth : string;
}

let setup ~seed =
  List.concat_map
    (fun name ->
      let l = Common.load (Common.input ~seed (Common.entry name)) in
      let prog = Common.program l in
      let s = Common.build_schemes prog in
      let truth = Tepic.Program.baseline_image prog in
      List.concat_map
        (fun p ->
          List.map
            (fun (n, sc) ->
              {
                label =
                  Printf.sprintf "%s/%s/%s" name n
                    (Encoding.Scheme.protection_name p);
                scheme = Encoding.Scheme.protect p sc;
                truth;
              })
            (Common.all_schemes s))
        protections)
    programs

type decoded = {
  item_s : float;
  jobs_used : int;
  chunks : int;
}

(* One decode through the public entry point, checked against the baseline
   image.  Traced, the certificate is taken first in a span of its own, so
   the decode that follows finds it memoized and its span holds the rest.
   [pass] names the decompress span: "cold" or "warm". *)
let decode ~pass img =
  Span.with_ "bench.item" @@ fun () ->
  let t0 = Span.now () in
  if !Span.enabled then
    ignore
      (Span.with_ "par_decode.classify_s" (fun () ->
           Cccs.Par_decode.classify img.scheme));
  let r =
    Span.with_ ("pipeline.decompress_s." ^ pass) (fun () ->
        Cccs.Pipeline.decompress ~jobs:Common.jobs img.scheme)
  in
  let item_s = Span.now () -. t0 in
  match r with
  | Ok (out, rep) ->
      Common.check
        (Printf.sprintf "rom-decode %s: output differs from baseline image"
           img.label)
        (String.equal out img.truth);
      { item_s; jobs_used = rep.Cccs.Par_decode.jobs; chunks = rep.chunks }
  | Error e ->
      Common.check
        (Printf.sprintf "rom-decode %s: %s" img.label
           (Encoding.Scheme.decode_error_to_string e))
        false;
      { item_s; jobs_used = 0; chunks = 0 }

(* ------------------------------------------------------------------ *)
(* Layer probes, traced rounds only and outside the timed phase: a
   one-domain decompress of every image, and the pieces it is made of,
   each timed on its own.  The pieces split the one-domain decompress into
   block decode, baseline re-encode and the rest (certificate lookup, chunk
   plan, gather). *)

(* A bare peek/advance walk over the image: the bit-reading floor any
   decoder of it pays. *)
let read_floor (sc : Encoding.Scheme.t) =
  let r = Bits.Reader.of_string sc.image in
  let acc = ref 0 in
  while Bits.Reader.remaining r >= 56 do
    acc := !acc lxor Bits.Reader.peek_bits r ~width:56;
    Bits.Reader.advance r 56
  done;
  ignore (Sys.opaque_identity !acc)

(* Returns the minor words the block decode allocated. *)
let probe img =
  let sc = img.scheme in
  ignore
    (Span.with_ "pipeline.decompress_s.seq" (fun () ->
         Cccs.Pipeline.decompress ~jobs:1 sc));
  Span.with_ "bits.read_floor_s" (fun () -> read_floor sc);
  let n = Array.length sc.Encoding.Scheme.block_offset_bits in
  let w0 = Gc.minor_words () in
  let blocks =
    Span.with_ "encoding.decode_block_s" (fun () ->
        let r = Bits.Reader.of_string sc.image in
        Array.init n (fun k ->
            let ops =
              match Encoding.Scheme.decode_block_checked_at sc r k with
              | Ok ops -> ops
              | Error _ -> []
            in
            ignore (Bits.Reader.align_byte r);
            ops))
  in
  let alloc_words = Gc.minor_words () -. w0 in
  let out =
    Span.with_ "tepic.encode_s" (fun () ->
        let w =
          Bits.Writer.create ~initial_bytes:(String.length img.truth) ()
        in
        Array.iter
          (fun ops ->
            List.iter (Tepic.Encode.encode w) ops;
            ignore (Bits.Writer.align_byte w))
          blocks;
        Bits.Writer.contents w)
  in
  Common.check
    (Printf.sprintf "rom-decode %s: block-by-block decode differs" img.label)
    (String.equal out img.truth);
  alloc_words

type round = {
  setup_s : float;
  cold : decoded list;
  cold_s : float;
  warm : decoded list;
  warm_s : float;
  bytes : int;  (** compressed bytes of every image *)
  base_bytes : int;  (** decoded bytes of every image: the baseline images *)
  alloc_words : float;  (** minor words of the block-decode probe *)
}

(* One round in a domain of its own: set-up, cold pass, warm pass. *)
let round ~seed _i =
  Common.fresh_domain @@ fun () ->
  let images, setup_s =
    Common.timed (fun () -> Span.with_ "bench.setup" (fun () -> setup ~seed))
  in
  let cold, cold_s, warm, warm_s =
    Span.with_ "bench.measure" (fun () ->
        let cold, cold_s =
          Common.timed (fun () -> List.map (decode ~pass:"cold") images)
        in
        let warm, warm_s =
          Common.timed (fun () -> List.map (decode ~pass:"warm") images)
        in
        (cold, cold_s, warm, warm_s))
  in
  let alloc_words =
    if !Span.enabled then Common.sum (List.map probe images) else 0.
  in
  {
    setup_s;
    cold;
    cold_s;
    warm;
    warm_s;
    bytes =
      List.fold_left
        (fun a i -> a + String.length i.scheme.Encoding.Scheme.image)
        0 images;
    base_bytes =
      List.fold_left (fun a i -> a + String.length i.truth) 0 images;
    alloc_words;
  }

(* The cold pass is measured over the decoded bytes, which the baseline
   check fixes, so a change to the encoders cannot move it; the warm pass
   over the compressed bytes read. *)
let summary rounds =
  {
    Report.setup_s = List.map (fun r -> r.setup_s) rounds;
    wall_s = List.map (fun r -> r.cold_s) rounds;
    decode_ms =
      List.concat_map
        (fun r -> List.map (fun d -> d.item_s *. 1e3) r.cold)
        rounds;
    cold_mb_s =
      List.map (fun r -> float_of_int r.base_bytes /. 1e6 /. r.cold_s) rounds;
    mb_s =
      List.map (fun r -> float_of_int r.bytes /. 1e6 /. r.warm_s) rounds;
    jobs_used = 1;
  }

(* Per-layer figures of the warm decodes and of the traced probes.
   [self] gives a span's self time per traced round; [pipeline.gather_s] is
   the one-domain decompress time the block decode and re-encode probes do
   not account for. *)
let counters rounds ~traced ~self =
  let n = float_of_int (max 1 (List.length rounds)) in
  let warm = List.concat_map (fun r -> r.warm) rounds in
  let per_traced = float_of_int (max 1 (List.length traced)) in
  let bytes = float_of_int (List.fold_left (fun a r -> a + r.bytes) 0 traced) /. per_traced in
  let ratio a b = if b > 0. then a /. b else 0. in
  [
    ( "par_decode.jobs_used",
      ratio
        (float_of_int (List.fold_left (fun a d -> a + d.jobs_used) 0 warm))
        (float_of_int (List.length warm)) );
    ( "par_decode.chunks",
      float_of_int (List.fold_left (fun a d -> a + d.chunks) 0 warm) /. n );
    ( "encoding.decode_alloc_words_per_byte",
      ratio
        (Common.sum (List.map (fun r -> r.alloc_words) traced) /. per_traced)
        bytes );
    ("bits.read_floor_mb_s", ratio (bytes /. 1e6) (self "bits.read_floor_s"));
    ( "pipeline.gather_s",
      self "pipeline.decompress_s.seq"
      -. self "encoding.decode_block_s" -. self "tepic.encode_s" );
  ]
