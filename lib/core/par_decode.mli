(** Decode of one whole compressed image.

    The image is walked block by block from bit 0, each block transcoded
    straight into 40-bit baseline words
    ({!Encoding.Scheme.transcode_block_checked_at}) — no [Op.t] is built.
    The Address Translation Table gives every block its own compressed
    address ([Scheme.block_offset_bits]), and the image verifier's
    CCCS-E100 check proves those offsets tile the image contiguously, so
    stepping over each block and its byte-alignment padding reaches the
    next block exactly where the ATT puts it.

    The decode is one sequential walk.  The module keeps its [Par_decode]
    name, {!classify} and {!report} only because the benchmark still
    links against them. *)

(** [classify s] does nothing.  It stays only because the benchmark still
    times it, and goes once it no longer does. *)
val classify : Encoding.Scheme.t -> unit

(** What a decode did, as the benchmark reads it from
    {!Pipeline.decompress}: always [{ jobs = 1; chunks = 1 }]. *)
type report = { jobs : int; chunks : int }

(** [decode ?obs s] — decode [s]'s compressed image back to the 40-bit
    baseline byte image.  Every block goes through the verifying frame
    walk, so a corrupt image yields the typed error of its first failing
    block, the same error (block, bit and reason) that
    {!Encoding.Scheme.decode_block_checked} reports for that block.  With
    [obs] the walk is one [Decode]-stage span labelled ["decode"].

    To decode a corrupted copy, pass [{ s with image = bad }]. *)
val decode :
  ?obs:Cccs_obs.Sink.t ->
  Encoding.Scheme.t ->
  (string, Encoding.Scheme.decode_error) result
