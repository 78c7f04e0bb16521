(** Tailored ISA generation (paper §2.3, Figure 4).

    Instead of compressing, re-encode: every field gets exactly the width
    this program needs, and no more.  Registers are renumbered densely per
    class; opcodes densely per type; field values that never vary
    disappear; reserved fields are dropped outright.  The T bit, OPT and
    OPCODE stay at fixed positions and fixed sizes so the decoder needs no
    search (the property the paper calls out explicitly) — decoding is
    plain field extraction programmed into the PLA, with {e no} Huffman
    dictionary and no extra pipeline stage.

    Each format keeps a fixed width, so the op stream is
    variable-per-format but static-per-opcode — exactly what the tailored
    ICache's miss-path alignment logic relies on (§5). *)

(** A dense value mapping for one field: [width] bits index [to_old]. *)
type dense_map = {
  width : int;
  to_new : (int, int) Hashtbl.t;
  to_old : int array;
}

(** The complete re-encoding specification the compiler derives; this is
    also what {!Decoder_gen} turns into the PLA's Verilog. *)
type spec = {
  opcode_bits : int;  (** fixed OPCODE field width across formats *)
  spec_bit : bool;  (** whether an S bit is present at all *)
  opcode_maps : (Tepic.Opcode.optype * dense_map) list;
  reg_maps : (Tepic.Reg.cls * dense_map) list;
  field_maps : (string * dense_map) list;  (** non-register fields *)
  widths : (Tepic.Opcode.kind * int) list;  (** total op bits per format *)
}

val spec_of_program : Tepic.Program.t -> spec

(** [op_bits spec kind] — tailored width of ops of format [kind]. *)
val op_bits : spec -> Tepic.Opcode.kind -> int

(** {1 Published field layout}

    The pieces of the PLA's field-extraction program, exposed so an
    independent decoder (the translation validator's abstract decoder)
    can re-derive the bit layout without the encoder's closures. *)

(** Fields dropped entirely from the tailored encoding. *)
val is_reserved : string -> bool

(** Raw fields whose values pass through at reduced width (branch targets
    stay patchable by the linker). *)
val is_raw : string -> bool

(** [reg_class_of_field opcode ~tcs fname] — the register file a field
    indexes, decided by the opcode and (for memory ops) the TCS target
    specifier; [None] for non-register fields. *)
val reg_class_of_field : Tepic.Opcode.t -> tcs:int -> string -> Tepic.Reg.cls option

(** [reg_map spec cls] / [field_map spec name] — the dense map serving a
    register class or a named non-register field (a zero-width constant
    map when the program never varies the field). *)
val reg_map : spec -> Tepic.Reg.cls -> dense_map

val field_map : spec -> string -> dense_map

(** [field_width spec kind fd] — tailored width of a non-prefix field in
    format [kind]. *)
val field_width : spec -> Tepic.Opcode.kind -> Tepic.Format_spec.field -> int

val build : Tepic.Program.t -> Scheme.t

(** [build_with_spec program] — also return the derived specification
    (used by the decoder generator and the examples). *)
val build_with_spec : Tepic.Program.t -> Scheme.t * spec
