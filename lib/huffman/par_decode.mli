(** Chunk planning for parallel decode of a compressed image.

    The image is a sequence of byte-aligned segments (blocks) whose exact
    bit offsets the Address Translation Table publishes; the planner cuts
    it at segment boundaries into at most [jobs] contiguous chunks, each
    at least a floor in size so that spawning a worker domain for it pays
    off.  Every segment boundary is a valid cut point because each
    segment decodes from its own offset (see [Cccs.Par_decode]); this
    module owns the arithmetic only. *)

type chunk = {
  id : int;  (** position in the plan, 0-based *)
  first : int;  (** first segment index *)
  count : int;  (** segments in this chunk, at least 1 *)
  start_bit : int;  (** bit offset of the chunk in the image *)
  bits : int;  (** total payload bits over the chunk's segments *)
}

(** Default chunk floor, in payload bits: 1_048_576 (1 Mibit).  Below
    this a chunk's decode work no longer dwarfs the spawn and join of its
    worker. *)
val chunk_floor_bits : int

(** [plan ~offsets ~sizes ~jobs ~min_bits] — cut the segments into at
    most [jobs] contiguous chunks of at least [min_bits] bits each
    (the final chunk takes the remainder; a single chunk is returned
    when the image is too small to split).  [offsets.(i)] is segment
    [i]'s bit offset, [sizes.(i)] its size.  Empty input yields an
    empty plan.  Raises [Invalid_argument] on mismatched arrays or
    [jobs < 1]. *)
val plan :
  offsets:int array -> sizes:int array -> jobs:int -> min_bits:int ->
  chunk array

(** [gather pieces] — concatenate per-chunk byte strings in plan order
    into one image (a byte blit per piece: chunks hold whole
    byte-aligned segments). *)
val gather : string list -> string
