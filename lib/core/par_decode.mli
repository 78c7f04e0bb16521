(** Parallel decode of a single compressed image.

    The image is cut at block boundaries into contiguous chunks, each
    chunk decoded independently back to the 40-bit baseline encoding, and
    the per-chunk outputs concatenated in order.  Each block is
    transcoded straight into baseline words
    ({!Encoding.Scheme.transcode_block_checked_at}) — no [Op.t] is
    built.  The contract is
    bit-exact equality with the sequential decode: same output image,
    and on corrupt input the same typed error ({!Encoding.Scheme.decode_error})
    at the same bit position — at every jobs count.

    The Address Translation Table is the only splitting rule: every
    scheme, framed or not, is cut at block offsets
    ([Scheme.block_offset_bits]), and each chunk seeks straight to the
    exact compressed address of its first block.  The image verifier's
    CCCS-E100 check proves those offsets tile the image contiguously,
    which is the one fact the split relies on.  Chunks are at least
    {!Huffman.Par_decode.chunk_floor_bits} each, and the jobs count is
    clamped to the core count ({!Parallel}), so a parallel request can
    degrade to the sequential decode but never lose to it. *)

(** [classify s] does nothing.  The split needs no per-scheme proof; the
    function stays only for callers that still time it, and goes once
    they no longer do. *)
val classify : Encoding.Scheme.t -> unit

(** What a decode actually did — reported next to every benchmark row. *)
type report = {
  jobs : int;
      (** worker domains actually used: the requested count after the
          core clamp and the observer degrade, capped by the number of
          chunks — 1 for a decode that spawned nothing *)
  chunks : int;
}

(** [decode ?jobs ?force ?obs ?min_chunk_bits ?image s] — decode [s]'s
    compressed image (or the override [image], e.g. a corrupted copy)
    back to the 40-bit baseline byte image.

    [jobs] defaults to {!Parallel.default_jobs}; the effective count is
    clamped to the core count unless [force], and degrades to [1] when an
    observer is installed (a shared sink cannot accept concurrent
    emitters; chunk spans then land on the [Decode] stage sequentially).

    [min_chunk_bits] overrides the chunk floor (default
    {!Huffman.Par_decode.chunk_floor_bits}) — for tests that must force
    a multi-chunk plan on a small image.

    Returns the decoded image with a {!report}, or the typed error of the
    first failing block — identical, position included, to what the
    sequential checked decode reports. *)
val decode :
  ?jobs:int ->
  ?force:bool ->
  ?obs:Cccs_obs.Sink.t ->
  ?min_chunk_bits:int ->
  ?image:string ->
  Encoding.Scheme.t ->
  (string * report, Encoding.Scheme.decode_error) result
