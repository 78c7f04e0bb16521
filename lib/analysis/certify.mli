(** Static decoder certification (the CCCS-E2xx / W205 family).

    Per scheme, builds the explicit decode automaton of every published
    codebook ({!Decode_dfa}) and proves, by exhaustive enumeration rather
    than sampling: decode totality (E200/E201), two-level Huffman LUT
    equivalence with the canonical code (E202/E203), and resolution of
    the scheme's declarative decode model into a certified worst-case
    block size bound every built block respects (E204).  Codebooks with
    no synchronizing sequence on unframed schemes warn (W205).  The
    resulting {!t} is what [cccs_cli certify] serializes as
    [cccs-certify/1]. *)

type book_cert = {
  book : string;
  symbols : int;
  max_code_len : int;
  dfa_states : int;  (** states enumerated in the proofs *)
  complete : bool;  (** every bit pattern decodes (no reject prefix) *)
  worst_bits : int;  (** certified worst-case bits per decoded symbol *)
  lut_root_checked : int;  (** root LUT slots proved against the DFA *)
  lut_sub_checked : int;  (** overflow sub-table slots proved *)
  recoverable : bool;
      (** every flip-reachable desync pair can merge or be detected *)
  resync_bits : int option;
      (** proven worst-case resync distance under single-bit flips *)
  sync_word_bits : int option;
      (** synchronizing-sequence length bound; [None] = non-synchronizing *)
}

type t = {
  scheme : string;
  books : book_cert list;
  worst_op_bits : int option;
      (** certified worst-case wire bits per decoded op, from the model *)
  worst_block_bits : int;  (** largest built block, observed *)
  worst_block_bound : int option;
      (** certified bound on the largest block, when the model resolves
          and a program is given *)
  blocks_checked : int;
  errors : int;
  warnings : int;
  ok : bool;  (** no CCCS-E2xx error *)
}

val certify_codes :
  workload:string ->
  ?scheme:string ->
  ?warn_sync:bool ->
  book:string ->
  max_len:int ->
  (int * int * int) list ->
  Diag.t list * book_cert option
(** Certify a raw [(symbol, code, length)] list: DFA construction (E200),
    totality (E201) and synchronization (W205 when [warn_sync], default
    true).  No LUT to compare, so the LUT counters stay 0.  [None] cert
    means construction or totality failed. *)

val certify_book :
  workload:string ->
  ?scheme:string ->
  ?warn_sync:bool ->
  string * Huffman.Codebook.t ->
  Diag.t list * book_cert option
(** {!certify_codes} on the book's canonical code, plus exhaustive LUT
    equivalence (E202/E203) when the book is LUT-eligible. *)

val resolve_model : Encoding.Scheme.t -> int option * string list
(** [resolve_model sc] resolves the scheme's decode model against its
    published books: the certified worst-case wire bits per decoded op,
    and the names of the books the model references but the scheme does
    not publish, one per such code source, in model order.  The bits are
    [None] when the scheme has no model or any book is unpublished.
    {!certify_scheme} reports each unpublished book as CCCS-E204;
    {!Timing_check} charges its certified block span from the bits. *)

val certify_scheme :
  workload:string ->
  ?program:Tepic.Program.t ->
  Encoding.Scheme.t ->
  Diag.t list * t
(** Certify every published book of [scheme], resolve its decode model
    (E204 on an unpublished book reference), and — when [program] is
    given and the model resolves — prove every built block within its
    certified size bound (E204 on violation). *)

val certify :
  workload:string ->
  ?program:Tepic.Program.t ->
  Encoding.Scheme.t list ->
  (Diag.t list * t) list

val pass : (module Pass.S)
(** Registry entry: runs {!certify_scheme} over every scheme of a
    {!Pass.target}. *)
