(** Common shape of every code-layout scheme in the study.

    A scheme turns a scheduled program into a ROM image plus everything the
    evaluation needs: per-block offsets and sizes (blocks are the atomic
    fetch unit and are byte-aligned, paper §3.3), the ROM cost of any
    decode tables, the decoder complexity parameters, and the one decoder
    back to the original operations: [transcode_payload] expands the
    image into baseline words, and the [Op.t] decode is a view of it.

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
  transcode_payload : Bits.Reader.t -> Bits.Writer.t -> int -> unit;
      (** [transcode_payload r w i] — the scheme's one payload decoder:
          read block [i]'s payload from [r]'s current position (which need
          not lie in this scheme's own image: fault campaigns decode
          corrupted copies) and append its ops to [w] as canonical 40-bit
          baseline words ([Tepic.Encode.normalize]d, reserved fields zero),
          without building any [Op.t].  On a protected scheme the payload
          starts just past the block's length field.  May raise on
          malformed input, leaving a partial block in [w];
          {!transcode_block_checked_at} is the total wrapper.  Its
          per-format plans are built with the scheme, but a Huffman book's
          decode table ([Huffman.Canonical]'s two-level LUT) is built on
          the book's first [Huffman.Codebook.read] and kept in the book:
          the first decode pays for it, and a scheme must not be shared
          across domains.  It keeps no mutable buffer across calls. *)
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

val decode_error_to_string : decode_error -> string

(** [payload_bits t i] — block [i]'s framed payload size: [block_bits]
    minus the length field and guard word. *)
val payload_bits : t -> int -> int

(** [transcode_block_checked_at t r w i] — total decode of block [i] with
    the reader [r] already positioned on the block's first bit, appending
    its baseline words to [w].  Never raises on corrupted data: every
    decoder exception, over- and under-consumption of the block's bits and
    — for protected schemes — length-field and CRC guard mismatches are
    returned as [Error] (with a partial block in [w]).  An [Ok] from a
    protected frame means the payload passed its guard word, and leaves
    the cursor just past the block's last framed bit (before any
    byte-alignment padding), so a caller can walk blocks back-to-back.
    The whole-image decode's hot path ([Cccs.Par_decode.decode]). *)
val transcode_block_checked_at :
  t -> Bits.Reader.t -> Bits.Writer.t -> int -> (unit, decode_error) result

(** [decode_block_checked_at t r i] — the [Op.t] view of
    {!transcode_block_checked_at}: the block is transcoded into a scratch
    writer and, on [Ok], its words are decoded with
    [Tepic.Encode.decode_ops].  The same checks, the same error (block,
    bit and reason) and the same cursor. *)
val decode_block_checked_at :
  t -> Bits.Reader.t -> int -> (Tepic.Op.t list, decode_error) result

(** [decode_block_checked ?image t i] — {!decode_block_checked_at} of
    block [i] from its own offset, reading from [image] (default: the
    scheme's own ROM).  A block offset past the end of a truncated image
    is an [Error] too. *)
val decode_block_checked :
  ?image:string -> t -> int -> (Tepic.Op.t list, decode_error) result

(** [protect p t] — re-frame every block of [t] as
    [length | payload | guard] with a CRC-[p] guard word, byte-aligned like
    the original layout.  [code_bits], offsets and sizes describe the
    protected image; [frame.protection_bits] isolates the overhead.
    [protect Unprotected] is the identity.  Raises [Invalid_argument] if
    [t] is already protected. *)
val protect : protection -> t -> t

(** [verify t program] — decode every block through
    {!decode_block_checked}, so the consumed-bits accounting and, on a
    protected scheme, the length field and guard word are checked too, and
    compare with the original ops.  Raises [Failure] with a diagnostic on
    the first error or mismatch. *)
val verify : t -> Tepic.Program.t -> unit

(** [build_blocks words encode_block] — shared image builder over a
    program's baseline words ({!Tepic.Program.words}): runs
    [encode_block writer words.(i)] per block, byte-aligns each block
    start, and assembles image/offsets/sizes.  [block_bits] excludes the
    alignment padding (it is accounted to the image, as in the paper's
    totals). *)
val build_blocks :
  int array array ->
  (Bits.Writer.t -> int array -> unit) ->
  string * int array * int array
