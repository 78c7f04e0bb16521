(** Address Translation Buffer with coupled branch prediction (§3.3-3.4).

    A small fully-associative LRU cache of ATT entries, one per block.
    Each resident entry carries the block's translation (compressed
    address, line count, MOP count) plus the per-block branch predictor the
    paper couples to it: a 2-bit saturating counter (Smith) for the
    taken/not-taken decision of the block's final branch, and a last-target
    register for the target.  Prediction: taken → last target; not taken →
    the next sequential block.

    When the configuration selects {!Config.Gshare} (the paper's
    future-work predictor), the taken/not-taken decision instead comes
    from a global-history-indexed pattern table; targets still come from
    the ATB entries. *)

type t

(** [create cfg ~num_blocks] — an empty ATB for a program of [num_blocks]
    blocks.  Every block id passed to the functions below must lie in
    [\[0, num_blocks)]: the entries live in per-block arrays, so
    residency, recency and predictor state cost no lookup.  Raises
    [Invalid_argument] on a gshare history outside 2-14 bits. *)
val create : Config.t -> num_blocks:int -> t

(** [lookup t block] — [true] on an ATB hit.  A miss installs the entry
    (evicting LRU) with the predictor initialized weakly-not-taken. *)
val lookup : t -> int -> bool

(** [predict t block] — predicted next block id after [block], using the
    resident predictor state ([block]'s entry must have been looked up). *)
val predict : t -> int -> int

(** [update t block ~next] — train the predictor of [block] with the
    observed next block ([next = block+1] counts as not taken). *)
val update : t -> int -> next:int -> unit

val hits : t -> int
val misses : t -> int
val reset : t -> unit
