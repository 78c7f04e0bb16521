(* Parallel decode of a single compressed image.

   One image, several worker domains: the image is cut at block boundaries
   into contiguous chunks (Huffman.Par_decode plans where), each chunk is
   transcoded independently back to the 40-bit baseline encoding, and the
   per-chunk outputs are concatenated in order.  The contract is bit-exact
   equality with the sequential decode — same output image, and on corrupt
   input the same typed error at the same bit position — enforced by the
   differential tests at every jobs count.

   The Address Translation Table is the only splitting rule.  It gives
   every block its exact compressed address ([block_offset_bits]), so a
   chunk seeks straight to its first block and no decoder ever enters the
   stream at a guessed boundary — whatever the scheme, framed or not.
   Two facts make the cut exact.  The image verifier's CCCS-E100 check
   proves the blocks tile the image contiguously, so the sequential walk
   reaches each block at the same offset the ATT names.  And every block
   goes through [Scheme.transcode_block_checked_at], which rejects a block
   that does not consume exactly [block_bits], so a chunk never runs past
   its blocks unnoticed.

   Chunks are at least [Huffman.Par_decode.chunk_floor_bits] each: an
   image too small to split decodes in one chunk and spawns nothing.
   Together with Parallel's core-count clamp this is the never-lose rule:
   requesting [--jobs 4] can reduce to the sequential decode, never to
   something slower. *)

module Scheme = Encoding.Scheme

(* Kept so callers that time it keep compiling; the split needs no
   per-scheme proof. *)
let classify (_ : Scheme.t) = ()

type report = { jobs : int; chunks : int }

(* Decode one chunk's blocks back-to-back, each transcoded straight into
   the chunk's output writer as 40-bit baseline words — no Op.t list in
   between.  Every block goes through the same verifying frame walk as the
   sequential checked decode (Scheme.transcode_block_checked_at shares
   decode_block_checked_at's checks, and each transcoder raises where its
   Op.t decoder does), with byte-alignment skipped between blocks instead
   of re-seeking, so a chunk is a faithful slice of the sequential walk —
   identical output bits, identical typed errors at identical positions. *)
let decode_chunk ?obs (s : Scheme.t) ~image (c : Huffman.Par_decode.chunk) =
  let run () =
    let r = Bits.Reader.of_string image in
    match Bits.Reader.seek r c.Huffman.Par_decode.start_bit with
    | exception exn ->
        Error
          {
            Scheme.scheme = s.Scheme.name;
            block = c.Huffman.Par_decode.first;
            bit = Bits.Reader.pos r;
            reason =
              (match exn with
              | Invalid_argument m | Failure m -> m
              | e -> Printexc.to_string e);
          }
    | () ->
        let w =
          Bits.Writer.create
            ~initial_bytes:(max 64 (c.Huffman.Par_decode.bits / 4))
            ()
        in
        let stop = c.Huffman.Par_decode.first + c.Huffman.Par_decode.count in
        let rec go k =
          if k >= stop then Ok (Bits.Writer.contents w)
          else
            match Scheme.transcode_block_checked_at s r w k with
            | Error e -> Error e
            | Ok () ->
                ignore (Bits.Writer.align_byte w);
                ignore (Bits.Reader.align_byte r);
                go (k + 1)
        in
        go c.Huffman.Par_decode.first
  in
  match obs with
  | None -> run ()
  | Some obs ->
      Cccs_obs.Sink.timed ~obs ~stage:Cccs_obs.Event.Decode
        ~label:(Printf.sprintf "chunk%d" c.Huffman.Par_decode.id)
        run

let decode ?jobs ?force ?obs ?min_chunk_bits ?image (s : Scheme.t) =
  let image = match image with Some i -> i | None -> s.Scheme.image in
  let n = Array.length s.Scheme.block_offset_bits in
  (* A shared observability sink cannot accept concurrent emitters: an
     observed decode runs as one chunk through the identical code path. *)
  let jobs_eff =
    match obs with
    | Some _ -> 1
    | None -> Parallel.effective_jobs ?force ?jobs (max 1 n)
  in
  let min_bits =
    match min_chunk_bits with
    | Some b -> max 0 b
    | None -> Huffman.Par_decode.chunk_floor_bits
  in
  let chunks =
    Huffman.Par_decode.plan ~offsets:s.Scheme.block_offset_bits
      ~sizes:s.Scheme.block_bits ~jobs:jobs_eff ~min_bits
  in
  (* Pre-warm the lazy LUT decode tables before any domain spawns:
     Canonical builds them on first read through a mutable field, and
     Domain.spawn provides the happens-before that makes a pre-built
     table safe to share (concurrent first-builds would race). *)
  if Array.length chunks > 1 then
    List.iter
      (fun (_, cb) ->
        let c = Huffman.Codebook.canonical cb in
        if Huffman.Canonical.lut_eligible c then
          ignore (Huffman.Canonical.table c))
      s.Scheme.books;
  let results =
    Parallel.map ?force ~jobs:jobs_eff
      (decode_chunk ?obs s ~image)
      (Array.to_list chunks)
  in
  (* Chunks cover disjoint increasing block ranges and every block decodes
     from its own offset, so the first Error in chunk order carries the
     smallest failing block — exactly the error the sequential walk stops
     at. *)
  match
    List.find_map (function Error e -> Some e | Ok _ -> None) results
  with
  | Some e -> Error e
  | None ->
      let pieces =
        List.map (function Ok p -> p | Error _ -> assert false) results
      in
      let chunks = Array.length chunks in
      Ok
        ( Huffman.Par_decode.gather pieces,
          { jobs = max 1 (min jobs_eff chunks); chunks } )
