(** Scheduled TEPIC programs.

    A program is an array of basic blocks, each a sequence of MOPs.  Blocks
    are the atomic unit of instruction fetch (paper §3.1): control can only
    enter at the first op and, absent interrupts, a block always runs to its
    end.  Block ids double as positions in the original (uncompressed)
    address space; branch ops name their target by block id, and the
    compressed-space translation is the job of the ATT/ATB. *)

type block = {
  id : int;
  mops : Mop.t list;
}

type t = private {
  name : string;
  entry : int;
  blocks : block array;
}

(** [make ~name ~entry blocks] validates and builds a program:
    block ids must equal their array position, every block must be
    non-empty, a branch may appear only as the last op of the last MOP of a
    block, and every branch target must be a valid block id.
    Raises [Invalid_argument] otherwise. *)
val make : name:string -> ?entry:int -> block list -> t

val num_blocks : t -> int
val block : t -> int -> block
val block_ops : block -> Op.t list
val block_num_ops : block -> int
val block_num_mops : block -> int

(** [terminator b] is the branch ending [b], if any; a block without one
    falls through to block [id + 1]. *)
val terminator : block -> Op.t option

(** [successors t id] lists possible next blocks: branch target and/or
    fall-through. *)
val successors : t -> int -> int list

val all_ops : t -> Op.t list
val num_ops : t -> int
val num_mops : t -> int

(** [iter_ops f t] applies [f] to every op in layout order. *)
val iter_ops : (Op.t -> unit) -> t -> unit

(** [map_ops f t] rewrites every op in place (block structure, MOP shapes
    and tail bits are preserved; [f] must not change an op's branch-ness). *)
val map_ops : (Op.t -> Op.t) -> t -> t

(** {1 Baseline image and original address space} *)

(** [baseline_image t] is the uncompressed ROM image: each op in its 40-bit
    (5-byte) form, blocks contiguous. *)
val baseline_image : t -> string

(** [words t] — each block's ops as 40-bit baseline words
    ({!Encode.to_int}), in layout order: [(words t).(i)] holds block [i].
    The input of every scheme builder.  Raises [Invalid_argument] on an op
    whose field overflows its slot. *)
val words : t -> int array array

(** [baseline_size_bytes t] is [5 * num_ops t]. *)
val baseline_size_bytes : t -> int

(** [block_addresses t] gives the byte address of each block's first op in
    the baseline image. *)
val block_addresses : t -> int array

val pp : Format.formatter -> t -> unit
