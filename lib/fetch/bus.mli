(** Memory-bus transition accounting (paper Figure 14).

    Power on the ROM bus is modelled by the number of bit {e flips}: each
    line fetched from memory is driven over the bus in
    [line_bits / bus_bits] beats, and every beat's Hamming distance from
    the previous bus state is charged.  Compression reduces the number of
    lines per delivered instruction, so flips track the compression ratio,
    as the paper observes. *)

type t

val create : Config.t -> image:string -> t

(** [read_bits image ~pos ~width] — the beat of [width] bits (1 to 62)
    at absolute bit [pos] of [image], MSB first; bits past the end of the
    image read as zero. *)
val read_bits : string -> pos:int -> width:int -> int

(** [fetch_line t line] — drive one memory line across the bus; returns the
    flips charged (also accumulated). *)
val fetch_line : t -> int -> int

(** [fetch_extra_bits t bits] — drive [bits] of non-code traffic (ATT
    entries) as zero-padded beats. *)
val fetch_extra_bits : t -> int -> int

val total_flips : t -> int
val total_beats : t -> int
val reset : t -> unit
