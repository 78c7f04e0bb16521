(** Log-scale (power-of-two bucket) histogram over non-negative ints.

    Bucket 0 holds values [<= 0]; bucket [b >= 1] holds the magnitude class
    [2^(b-1) .. 2^b - 1].  Percentiles are estimated by linear
    interpolation inside the bucket holding the requested rank, so the
    estimate always falls within the bucket bounds of the true order
    statistic. *)

type t

val create : unit -> t
val observe : t -> int -> unit

val count : t -> int
val sum : t -> int
val min_value : t -> int
val max_value : t -> int
val mean : t -> float

(** Bucket index a value falls into, and the bucket's inclusive bounds —
    exposed for the percentile-correctness tests. *)
val bucket_of : int -> int

val bucket_lo : int -> int
val bucket_hi : int -> int

(** Non-empty buckets as [(lo, hi, count)], bounds clipped to the observed
    range. *)
val nonzero_buckets : t -> (int * int * int) list

(** [percentile t q] — value at quantile [q] in [0,1]; rank
    [ceil (q * count)], clamped to at least 1. *)
val percentile : t -> float -> float

type summary = {
  s_count : int;
  s_sum : int;
  s_min : int;
  s_max : int;
  s_mean : float;
  s_p50 : float;
  s_p90 : float;
  s_p99 : float;
}

val summarize : t -> summary
val pp : Format.formatter -> t -> unit
