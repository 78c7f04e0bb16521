(** Set-associative line cache over a scheme's compressed address space.

    Models the storage of the banked ICache (§3.4): the two banks are
    interleaved line storage, so for hit/miss purposes the structure is an
    ordinary set-associative cache of {!Config.t.line_bits} lines with LRU
    replacement.  Blocks follow the restricted placement model — a block
    hits only if {e every} line it spans is resident.  A block is named by
    its inclusive line span, [first] to [last], as {!Config.line_span}
    computes it. *)

type t

val create : Config.t -> t

(** [line_resident t line] — is one line present (does not touch LRU)? *)
val line_resident : t -> int -> bool

(** [refresh t ~first ~last] — a reference's hit path in one pass:
    refresh the span's lines in order while they are resident; [true] if
    all were, i.e. the block hits.  On [false] the caller must [touch_block] the span, which
    re-stamps the refreshed lines in the same order before it fills
    anything, so the early refresh changes no decision. *)
val refresh : t -> first:int -> last:int -> bool

(** [touch_block t ~first ~last] — reference the block: missing lines are
    filled (LRU eviction), present lines refreshed, in line order.
    Returns the number of lines fetched.  A span longer than the number
    of sets can evict its own lines, so the bus carries the lines missing
    {e before} the touch. *)
val touch_block : t -> first:int -> last:int -> int

val reset : t -> unit
