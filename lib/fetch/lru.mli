(** Recency order over the dense ids [\[0, n)], most recent first: a
    doubly linked list threaded through arrays, as the ATB and the L0
    buffer keep their resident blocks.  O(1), allocation-free. *)

type t

val create : int -> t
val mem : t -> int -> bool
val size : t -> int

(** [touch t i] — make [i] the most recent id, adding it if absent. *)
val touch : t -> int -> unit

(** [pop t] — remove and return the least recent id of a non-empty [t]. *)
val pop : t -> int

val clear : t -> unit
