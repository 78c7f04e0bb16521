(** Textual TEPIC assembly listing — the output side of the TINKER
    assembler: [cccs disasm] prints it.  Nothing reads it back; the
    program's bits are [Encode]'s.

    {v
    # program demo (2 blocks, 5 ops)
    bb0:
      ldi r0, #1024
      ldi r5, #255 ;;
    bb1:
      (p3) <s> add r7, r7, r3
      lw r10, [r7] lat=3
      brlc bb1 ctr=r9 ;;
    v}

    One op per line; [;;] marks the end of a MOP (the tail bit); [(pN)]
    is the guard predicate; [<s>] the speculative bit; [key=val] trailers
    carry the format's minor fields when they differ from their
    constructor defaults.  FP memory ops print their FPR operand directly
    ([lw f3, [r1]] means TCS = 1).  Every field of an op shows in its
    line: two ops that differ in one field print differently. *)

(** [print_op op] — one line, without the newline. *)
val print_op : Op.t -> string

(** [print_program p] — full listing with block labels. *)
val print_program : Program.t -> string
