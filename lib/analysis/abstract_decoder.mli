(** An independent re-implementation of every scheme's decode path,
    driven only by the scheme's {e published} ROM artifacts: canonical
    codebooks, field-width tables, the tailored spec, the dictionary
    contents and the frame geometry.  It never calls the scheme's own
    decoder ([transcode_payload]) and never seeks by the encoder's block
    index, so a builder bug cannot hide itself — the image is decoded
    from bit 0 forward exactly as a hardware decoder ROM-programmed from
    the same tables would.

    The op counts per block come from the scheduled program — the {e spec}
    side of the translation being validated — never from the scheme. *)

(** How to decode one step of a scheme's symbol stream. *)
type strategy =
  | Base
  | Byte of Huffman.Codebook.t
  | Stream of Tepic.Field_stream.t * Huffman.Codebook.t option array
  | Full of Huffman.Codebook.t
  | Tailored_isa of Encoding.Tailored.spec
  | Dict of { entries : int list array; idx_bits : int }

(** Why a decode step rejected the stream.  [Out_of_range] is separated
    from the generic failures because it maps to its own diagnostic (a
    dense-table index past the published table, CCCS-E104). *)
type error =
  | Truncated
  | Off_table of string  (** codebook name *)
  | Out_of_range of { field : string; index : int; size : int }
  | Malformed of string

val error_to_string : error -> string

(** [strategy_of_scheme ?tailored ~program sc] — resolve a scheme's
    published tables into a decode strategy; [Error] when a table the
    scheme's decoder needs is not published (or no tailored spec was
    supplied for the tailored ISA). *)
val strategy_of_scheme :
  ?tailored:Encoding.Tailored.spec ->
  program:Tepic.Program.t ->
  Encoding.Scheme.t ->
  (strategy, string) result

(** [decode_step strategy r] — decode the smallest self-contained unit of
    the stream: one op for most schemes, an op sequence for a dictionary
    reference.  Total: every malformation comes back as [Error]. *)
val decode_step :
  strategy -> Bits.Reader.t -> (Tepic.Op.t list, error) result

(** Codewords consumed by one decode step, the unit of the
    resynchronization-distance analysis. *)
val codewords_of_step : strategy -> Tepic.Op.t list -> int

(** One recovered decode step: [bit] is where it started. *)
type step = { bit : int; ops : Tepic.Op.t list }

type block = {
  index : int;
  start_bit : int;  (** recovered block start (byte-aligned) *)
  payload_start : int;  (** after the frame's length field, if any *)
  payload_end : int;  (** after the last op, before the guard word *)
  end_bit : int;  (** after the guard word, if any *)
  steps : step list;
  ops : Tepic.Op.t list;
}

(** [decode_block strategy ~frame r ~index ~start ~op_count] — decode one
    block of [op_count] ops starting at bit [start], returning the
    recovered extents, or the bit position and cause of the first
    failure.  The frame's guard word is skipped, not checked — the
    caller validates it independently of op decode (see Image_check). *)
val decode_block :
  strategy ->
  frame:Encoding.Scheme.frame ->
  Bits.Reader.t ->
  index:int ->
  start:int ->
  op_count:int ->
  (block, int * error) result
