(** Stream decomposition of operations for stream-based Huffman compression
    (paper §2.2, Figure 3).

    A stream configuration partitions the field names of every format into
    [nstreams] independent compression streams.  Certain fields repeat much
    more across ops when viewed in isolation — the OPT/OPCODE pair, or the
    almost-always-true PREDICATE — so compressing each stream with its own
    Huffman code beats a single code over whole bytes for some programs.

    Decodability requires the format-selecting prefix (T, S, OPT, OPCODE)
    to live in stream 0: the decoder first decodes the stream-0 symbol,
    learns the format, and from it the symbol widths of every other
    stream. *)

type t = {
  name : string;
  nstreams : int;
  stream_of_field : string -> int;
}

(** [validate t] checks that every field of every format maps into
    [0 .. nstreams-1] and that all of T, S, OPT, OPCODE map to stream 0.
    Raises [Invalid_argument] otherwise. *)
val validate : t -> unit

(** [widths t kind] is the bit width of each stream's symbol for ops of
    format [kind]; entries may be 0 when a stream has no field in that
    format. *)
val widths : t -> Opcode.kind -> int array

(** [symbols t op] is the per-stream (value, width) symbol vector of [op].
    Fields concatenate into the symbol in format layout order.  The
    spec-level reference, rebuilt from the layout on every call: builders
    gather symbols out of baseline words with {!gather} instead. *)
val symbols : t -> Op.t -> (int * int) array

(** [op_of_symbols t kind values] reassembles an op from per-stream symbol
    values (widths implied by [kind]).  Inverse of {!symbols}. *)
val op_of_symbols : t -> Opcode.kind -> int array -> Op.t

(** [scatter t kind] — where each stream's symbol bits land in the 40-bit
    baseline image of a [kind] op.  Per stream, a flat array of
    [(symbol shift, field mask, image shift)] triples, one per field in
    layout order: OR-ing [((sym lsr a) land m) lsl b] over every triple of
    every stream's symbol gives the image {!op_of_symbols} reassembles,
    reserved fields included as they stand in the symbols. *)
val scatter : t -> Opcode.kind -> int array array

(** [gather sc word] — the encode direction of one stream's {!scatter}
    triples [sc]: the stream's symbol value, OR-ing
    [((word lsr b) land m) lsl a] over its triples.  For a [kind] op,
    [gather (scatter t kind).(s) (Encode.to_int op)] is
    [fst (symbols t op).(s)]. *)
val gather : int array -> int -> int

(** [kind_of_stream0 t ~value ~width] decodes the format from a stream-0
    symbol: extracts OPT and OPCODE from their fixed positions.  Raises
    [Invalid_argument] for undefined opcode points. *)
val kind_of_stream0 : t -> value:int -> width:int -> Opcode.kind
