(** Complete Huffman codebooks: statistics in, encoder/decoder out.

    A codebook owns the canonical code plus the bookkeeping the paper's
    evaluation needs: dictionary entry count [k], longest code [n], longest
    dictionary entry [m] (the symbol width in bits) — the three parameters
    of the decoder complexity model (Figure 9/10) — and the ROM cost of
    storing the table itself. *)

type t

type stats = {
  entries : int;  (** k: dictionary entries *)
  max_code_len : int;  (** n: longest codeword, bits *)
  max_symbol_bits : int;  (** m: longest dictionary entry, bits *)
  mean_code_len : float;  (** frequency-weighted mean codeword length *)
  entropy_bits : float;  (** Shannon bound, bits/symbol *)
  payload_bits : int;  (** total compressed payload for the training input *)
  table_bits : int;  (** ROM bits to store the canonical table *)
}

(** [make ?max_len ~symbol_bits freq] builds a codebook from a histogram.
    [symbol_bits sym] is the width of a dictionary entry for [sym] (all the
    alphabets in this study have an a-priori width: 8 for bytes, 40 for
    whole ops, stream width for stream symbols).  When the optimal Huffman
    code would exceed [max_len] (default: no limit), lengths are recomputed
    with package-merge under the cap — the paper's bounded-Huffman
    fallback.  Raises [Invalid_argument] on an empty histogram. *)
val make : ?max_len:int -> symbol_bits:(int -> int) -> Freq.t -> t

val stats : t -> stats

val mem : t -> int -> bool
val write : t -> Bits.Writer.t -> int -> unit
val read : t -> Bits.Reader.t -> int

(** [read_opt t r] — total variant of {!read}: [None] on a codepoint outside
    the alphabet or a truncated stream (cursor restored), so corrupted
    streams are detected without an exception crossing the decode path. *)
val read_opt : t -> Bits.Reader.t -> int option

(** [read_serial t r] / [read_serial_opt t r] — the bit-serial reference
    decoders (see {!Canonical.read_serial}): identical behaviour to
    {!read}/{!read_opt}, one bit at a time.  Used by the differential
    tests and the decode-throughput benchmark baseline. *)
val read_serial : t -> Bits.Reader.t -> int

val read_serial_opt : t -> Bits.Reader.t -> int option
val canonical : t -> Canonical.t

(** [decoder_transistors t] evaluates the paper's worst-case decoder cost
    model on this codebook (see {!Decoder_cost.transistors}). *)
val decoder_transistors : t -> int
