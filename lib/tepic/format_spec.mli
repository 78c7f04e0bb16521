(** Encoding formats of the 40-bit baseline TEPIC ISA (paper Table 2).

    A format is an ordered list of named bit fields whose widths sum to
    {!op_bits}.  Every format starts with the same four fields — [T] (tail
    bit, zero-NOP encoding), [S] (speculative bit), [OPT] (2-bit operation
    type) and [OPCODE] (5 bits) — which is what lets a decoder determine the
    format from a fixed prefix, a property the tailored encoder preserves
    (paper §2.3). *)

(** Width of every baseline operation, in bits. *)
val op_bits : int

(** Width of every baseline operation, in bytes (40 bits = 5 bytes). *)
val op_bytes : int

type field = {
  fname : string;
  width : int;
}

(** [layout kind] is the full field list for a format, in encoding order.
    Field widths always sum to [op_bits]. *)
val layout : Opcode.kind -> field list

(** The fixed prefix common to all formats: T, S, OPT, OPCODE. *)
val prefix : field list

(** [prefix_bits] is the total width of {!prefix} (9 bits). *)
val prefix_bits : int

(** [is_reserved name] holds for the reserved fields ([RES], [RES2],
    [RSV]): always encoded as zero, carrying no operand. *)
val is_reserved : string -> bool

(** All distinct field names across formats, in a stable order. *)
val all_field_names : string list

val kinds : Opcode.kind list
val kind_to_string : Opcode.kind -> string
