(* Decode of one whole compressed image: one walk over its blocks.

   The paper decompresses code one fetch block at a time, and the Address
   Translation Table gives every block its exact compressed address
   ([block_offset_bits]).  Decoding the whole image therefore only has to
   walk the blocks in order.  Two facts keep the walk on the ATT's
   offsets.  The image verifier's CCCS-E100 check proves the blocks tile
   the image contiguously, so the byte-aligned end of block [k] is the
   start of block [k + 1].  And every block goes through
   [Scheme.transcode_block_checked_at], which rejects a block that does
   not consume exactly [block_bits], so the walk never runs past a block
   unnoticed. *)

module Scheme = Encoding.Scheme

(* Kept so the benchmark, which still times it, keeps compiling. *)
let classify (_ : Scheme.t) = ()

type report = { jobs : int; chunks : int }

(* Each block is transcoded straight into the output writer as 40-bit
   baseline words — no Op.t list in between — through the verifying frame
   walk that the per-block decode also takes, so a corrupt image yields
   the typed error at the position a per-block decode reports.  Both
   cursors skip the byte-alignment padding between blocks. *)
let decode ?obs (s : Scheme.t) =
  Cccs_obs.Sink.timed ?obs ~stage:Cccs_obs.Event.Decode ~label:"decode"
  @@ fun () ->
  let r = Bits.Reader.of_string s.Scheme.image in
  let w =
    Bits.Writer.create
      ~initial_bytes:(max 64 (2 * String.length s.Scheme.image))
      ()
  in
  let n = Array.length s.Scheme.block_offset_bits in
  let rec go k =
    if k >= n then Ok (Bits.Writer.contents w)
    else
      match Scheme.transcode_block_checked_at s r w k with
      | Error e -> Error e
      | Ok () ->
          ignore (Bits.Writer.align_byte w);
          ignore (Bits.Reader.align_byte r);
          go (k + 1)
  in
  go 0
