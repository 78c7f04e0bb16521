(** Explicit decode automaton (binary trie/DFA) for a prefix codebook.

    This is the proof substrate of the certification pass: the automaton
    a codebook {e specifies} is materialized once, and every certificate
    claim — decode totality, LUT slot equivalence, resynchronization
    bounds — is established by exhaustive enumeration over its finite
    state space, not by sampling. *)

type t
(** A decode DFA.  State 0 is the root; edges consume one bit MSB-first;
    entering an emitting state emits its symbol and restarts decoding at
    the root.  Immutable once built. *)

type conflict =
  | Prefix of { shorter : int; longer : int }
      (** [shorter]'s codeword is a proper prefix of [longer]'s. *)
  | Duplicate of { first : int; second : int }
      (** Two symbols were assigned the same codeword. *)
  | Bad_length of { symbol : int; length : int }
      (** A codeword length lies outside [1, max_len]. *)

val conflict_to_string : conflict -> string

val of_codes : max_len:int -> (int * int * int) list -> (t, conflict) result
(** [of_codes ~max_len codes] builds the automaton from
    [(symbol, code, length)] triples (code bits are the [length]
    low-order bits of [code], written MSB-first).  Construction itself is
    the prefix-freeness proof: any violation surfaces as [Error]. *)

val of_canonical : Huffman.Canonical.t -> (t, conflict) result
(** Automaton of a canonical codebook ([Canonical.to_list] order). *)

(** {1 Totality} *)

type totality = {
  states : int;  (** states enumerated — all reachable states *)
  worst_bits : int;  (** certified worst-case bits per emitted symbol *)
  reject_prefixes : int;
      (** missing edges, i.e. bit prefixes on which the decoder reports
          an error at a bounded position *)
  complete : bool;  (** no reject prefix: every bit pattern decodes *)
}

type violation = { state : int; depth : int; reason : string }

val prove_total : t -> (totality, violation) result
(** Exhaustively checks that every state either emits a symbol or
    rejects/continues strictly within [max_len] bits.  [Error] carries
    the witness state. *)

(** {1 Replay oracle} *)

type outcome =
  | Emits of { symbol : int; length : int }
      (** first symbol decoded; [length] is its full codeword length *)
  | Rejects of { at_bit : int }  (** error detected at this 1-based bit *)
  | Continues of { state : int }  (** pattern exhausted mid-codeword *)

val run : t -> width:int -> int -> outcome
(** [run t ~width w] feeds the [width] low-order bits of [w], MSB-first,
    from the root, and reports the first decode event.  This is the
    oracle each Huffman LUT slot is compared against. *)

(** {1 Resynchronization} *)

type sync = {
  live_states : int;  (** non-emitting (mid-codeword) states, root incl. *)
  pairs_reachable : int;
      (** desynchronized (clean, corrupted) state pairs reachable from a
          single-bit substitution, before absorption *)
  recoverable : bool;
      (** every reachable pair can still merge or be detected *)
  resync_bits : int option;
      (** proven worst-case bits from the flipped bit until the
          corrupted decoder re-merges with the clean one or rejects;
          [None] if a reachable pair cycle makes this unbounded *)
  sync_word_bits : int option;
      (** upper bound on the length of a universal synchronizing bit
          sequence (forces {e every} decoder state into lock-step):
          exactly [(live' - 1) * d], where [live'] counts the live states
          plus one shared error state when some state rejects, and [d] is
          the longest shortest merging word over all pairs of them;
          [None] if some pair never merges — e.g. fixed-length codes *)
}

val certify_sync : t -> sync
(** Exhaustive analysis of the pair automaton under the single-bit
    substitution fault model (the W107 model), yielding proven rather
    than empirical resynchronization bounds.  Each search runs once over
    its graph: the first four fields cost time linear in
    [pairs_reachable], [sync_word_bits] time quadratic in the live
    states.
    @raise Invalid_argument when the live states, plus the error state,
    exceed 46,340: a state pair's key no longer fits the int32 queue of
    the synchronizing-word search. *)
