(** The L0 decompression buffer of the compressed-encoding ICache (§4).

    A small fully-associative cache of {e decompressed} blocks, 32 op
    entries in the paper, accessed in parallel with (and with priority
    over) the L1.  Decompression happens when a block enters the buffer;
    a buffer hit therefore delivers ops with no decoder in the path, which
    is why Table 1 charges one cycle regardless of everything else.  Tight
    loops that fit deliver uncompressed-cache performance — the paper's
    DSP-kernel observation. *)

type t

(** [create cfg ~num_blocks] — an empty buffer; block ids lie in
    [\[0, num_blocks)], as for {!Atb.create}. *)
val create : Config.t -> num_blocks:int -> t

(** [hit t block] — whole block resident (refreshes LRU). *)
val hit : t -> int -> bool

(** [insert t block ~ops] — install a decompressed block of [ops] ops,
    evicting whole LRU blocks until it fits.  Blocks larger than the
    buffer bypass it. *)
val insert : t -> int -> ops:int -> unit

val hits : t -> int
val misses : t -> int
val reset : t -> unit
