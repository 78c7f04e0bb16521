(** Baseline 40-bit encoding of TEPIC operations (paper Table 2).

    The baseline image stores each op in exactly 5 bytes; a block of [n] ops
    occupies [5 n] bytes.  Decoding needs no context: the fixed T/S/OPT/
    OPCODE prefix selects the format. *)

(** [encode w op] appends the 40-bit image of [op] ({!to_int}) to [w] as
    one field. *)
val encode : Bits.Writer.t -> Op.t -> unit

(** [decode r] reads one 40-bit op.  Raises [Invalid_argument] on an
    undefined opcode point. *)
val decode : Bits.Reader.t -> Op.t

(** [encode_ops ops] is the byte image of a sequence of ops. *)
val encode_ops : Op.t list -> string

(** [decode_ops ~count s] decodes [count] ops from a byte image. *)
val decode_ops : count:int -> string -> Op.t list

(** [to_int op] is the 40-bit image as a single integer — the symbol used by
    the full-op Huffman alphabet and every scheme builder's input.  Built
    per format from field slots read off {!Format_spec.layout} once;
    raises [Invalid_argument] on a field value that does not fit its
    slot. *)
val to_int : Op.t -> int

(** [of_int v] decodes a 40-bit integer image. *)
val of_int : int -> Op.t

(** {1 Transcoding without [Op.t]}

    The compressed-image transcoders rebuild baseline words without
    materializing ops; these two entry points give them the format
    decision and the canonical form of a word from one 128-entry table
    keyed by the 7-bit OPT|OPCODE point (bits 37..31 of the 40-bit
    image), built from {!Opcode} and {!Format_spec.layout}. *)

(** [point_kind p] — the format selected by the OPT|OPCODE point
    [p = (opt lsl 5) lor opcode]; [None] for an undefined point or [p]
    outside [0, 127]. *)
val point_kind : int -> Opcode.kind option

(** [normalize v] — the canonical 40-bit image of [v]: its reserved fields
    ([RES], [RES2], [RSV]) zeroed, every other bit kept.  Equal to
    [to_int (of_int v)], without building the op: on an undefined opcode
    point it raises the same [Invalid_argument] as {!decode}, and on a [v]
    outside [0, 2^40) the same as {!of_int}. *)
val normalize : int -> int
