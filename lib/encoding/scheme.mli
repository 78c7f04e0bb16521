(** Common shape of every code-layout scheme in the study.

    A scheme turns a scheduled program into a ROM image plus everything the
    evaluation needs: per-block offsets and sizes (blocks are the atomic
    fetch unit and are byte-aligned, paper §3.3), the ROM cost of any
    decode tables, the decoder complexity parameters, and a verified
    decoder back to the original operations.

    A scheme may additionally carry a {e protected} block framing
    ({!protect}): every block is wrapped as
    [length-field | payload | guard-word], where the guard word is a
    CRC-8/16 over the payload bits and the length field pins the payload
    extent.  Protection makes every single-bit fault inside a block frame
    detectable — a flipped Huffman codeword otherwise desynchronizes every
    symbol after it with no signal — at a measurable compression-ratio
    cost ([code_bits] includes the framing). *)

type decoder_info = {
  dict_entries : int;  (** k — dictionary entries (0: no dictionary) *)
  max_code_bits : int;  (** n — longest codeword *)
  entry_bits : int;  (** m — longest dictionary entry *)
  transistors : int;
      (** worst-case Huffman-decoder cost per the paper's model; 0 for
          schemes decoded by plain field extraction (base, tailored) *)
}

(** Soft-error guard applied to each block frame. *)
type protection = Unprotected | Crc8 | Crc16

val guard_bits_of : protection -> int

(** [poly_of p] — the CRC generator polynomial of [p] (0 for
    [Unprotected]). *)
val poly_of : protection -> int

val protection_name : protection -> string
val protection_of_name : string -> protection option

(** Block framing metadata.  [no_frame] for bare schemes; {!protect}
    installs a real frame. *)
type frame = {
  protection : protection;
  len_bits : int;  (** width of the explicit block-length field *)
  guard_bits : int;  (** width of the per-block CRC guard word *)
  protection_bits : int;
      (** total framing overhead over all blocks — the ROM cost of
          protection, reported next to the Figure 5 ratios *)
}

val no_frame : frame

(** One component of a scheme's declarative decode model: where the bits
    of a decoded op come from.  [Fixed_bits] — a fixed-layout field group
    consuming between [min_bits] and [max_bits] per op ([label] names it
    in certificates); [Book_codewords] — at most [max_per_op] codewords
    per op drawn from the published codebook named [book]. *)
type code_source =
  | Fixed_bits of { label : string; min_bits : int; max_bits : int }
  | Book_codewords of { book : string; max_per_op : int }

type t = {
  name : string;
  image : string;  (** the code segment, blocks contiguous, byte-aligned *)
  code_bits : int;  (** total code-segment size (image length in bits) *)
  table_bits : int;  (** ROM bits for decode tables / dictionaries *)
  block_offset_bits : int array;  (** bit offset of each block (mult. of 8) *)
  block_bits : int array;  (** compressed size of each block, incl. framing *)
  frame : frame;
  decoder : decoder_info;
  books : (string * Huffman.Codebook.t) list;
      (** the Huffman codebooks behind the image, if any (one per stream
          for the stream schemes); exposed so static analysis can audit
          prefix-freeness, Kraft completeness and canonical ordering *)
  model : code_source list;
      (** the declarative decode model: summed over the sources, the
          certified bounds on the bits one decoded op consumes.  The
          static certification pass proves each [Book_codewords] source
          against its codebook's decode automaton and checks every built
          block against the implied worst-case size (framing excluded —
          {!protect} accounts for it separately and preserves the model) *)
  decode_payload : Bits.Reader.t -> int -> Tepic.Op.t list;
      (** [decode_payload r i] — decode block [i]'s ops starting at [r]'s
          current position (which need not lie in this scheme's own image:
          fault campaigns decode corrupted copies).  May raise on malformed
          input; {!decode_block_checked} is the total wrapper. *)
  transcode_payload : Bits.Reader.t -> Bits.Writer.t -> int -> unit;
      (** [transcode_payload r w i] — {!decode_payload} straight to the
          baseline image: append block [i]'s ops to [w] as 40-bit baseline
          words ([Tepic.Encode.encode] of each decoded op) without building
          any [Op.t].  It reads [r] in [decode_payload]'s order and raises
          the same exception at the same cursor position, so the checked
          wrapper {!transcode_block_checked_at} reports exactly
          {!decode_block_checked_at}'s error.  On a raise, [w] holds a
          partial block.  Its tables are built eagerly when the scheme is
          built, and it keeps no mutable buffer across calls, so one
          scheme may transcode from several domains at once (once its
          Huffman LUTs are built). *)
  decode_block : int -> Tepic.Op.t list;
      (** decompress block [i] of the scheme's own image back to its exact
          original ops *)
}

(** [ratio t ~baseline_bits] — code-segment compression ratio (1.0 = no
    gain), the quantity plotted in the paper's Figure 5.  For a protected
    scheme the framing bits are part of [code_bits], so the protection
    cost shows up here. *)
val ratio : t -> baseline_bits:int -> float

(** Where and why a checked decode rejected a block. *)
type decode_error = {
  scheme : string;
  block : int;
  bit : int;  (** absolute bit position in the image at detection *)
  reason : string;
}

val pp_decode_error : Format.formatter -> decode_error -> unit
val decode_error_to_string : decode_error -> string

(** [payload_bits t i] — block [i]'s framed payload size: [block_bits]
    minus the length field and guard word. *)
val payload_bits : t -> int -> int

(** [decode_block_checked ?image t i] — total decode of block [i], reading
    from [image] (default: the scheme's own ROM).  Never raises on
    corrupted data: all decoder exceptions, over- and under-consumption of
    the block's bits and — for protected schemes — length-field and CRC
    guard mismatches are returned as [Error].  An [Ok] result from a
    protected frame means the payload passed its guard word. *)
val decode_block_checked :
  ?image:string -> t -> int -> (Tepic.Op.t list, decode_error) result

(** [decode_block_checked_at t r i] — {!decode_block_checked} with the
    reader [r] already positioned on block [i]'s first bit.  The chunked
    parallel decoder walks blocks back-to-back through this, so a corrupt
    stream yields the same typed error at the same bit position as the
    sequential checked decode.  On [Ok] the cursor rests just past the
    block's last framed bit (before any byte-alignment padding). *)
val decode_block_checked_at :
  t -> Bits.Reader.t -> int -> (Tepic.Op.t list, decode_error) result

(** [transcode_block_checked_at t r w i] — {!decode_block_checked_at}
    through [transcode_payload]: the same length-field, CRC-guard and
    consumed-bits checks, walked by the same code, with block [i]'s
    baseline words appended to [w] instead of returned as ops.  [Ok ()]
    leaves [w] holding [Tepic.Encode.encode_ops] of the ops
    {!decode_block_checked_at} would return, and the cursor where it would
    leave it; an [Error] is the same error, block, bit and reason (with a
    partial block in [w]).  The parallel decoder's hot path. *)
val transcode_block_checked_at :
  t -> Bits.Reader.t -> Bits.Writer.t -> int -> (unit, decode_error) result

(** [protect p t] — re-frame every block of [t] as
    [length | payload | guard] with a CRC-[p] guard word, byte-aligned like
    the original layout.  [code_bits], offsets and sizes describe the
    protected image; [frame.protection_bits] isolates the overhead.
    [protect Unprotected] is the identity.  Raises [Invalid_argument] if
    [t] is already protected. *)
val protect : protection -> t -> t

(** [verify t program] — decode every block and compare with the original
    ops, and check that the decoder consumed exactly the bits the block
    frame holds (over/under-consumption can silently mis-decode even when
    the ops happen to match).  Raises [Failure] with a diagnostic on the
    first mismatch. *)
val verify : t -> Tepic.Program.t -> unit

(** [build_blocks program encode_block] — shared image builder: runs
    [encode_block writer ops] per block, byte-aligns each block start, and
    assembles image/offsets/sizes.  [block_bits] excludes the alignment
    padding (it is accounted to the image, as in the paper's totals). *)
val build_blocks :
  Tepic.Program.t ->
  (Bits.Writer.t -> Tepic.Op.t list -> unit) ->
  string * int array * int array

(** [block_decoder ~image ~offsets decode_payload] — the standard
    [decode_block]: seek to block [i] in [image] and run [decode_payload]. *)
val block_decoder :
  image:string ->
  offsets:int array ->
  (Bits.Reader.t -> int -> Tepic.Op.t list) ->
  int ->
  Tepic.Op.t list
