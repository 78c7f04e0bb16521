(* Log-scale (power-of-two bucket) histogram over non-negative ints.

   Bucket 0 holds values <= 0; bucket b (b >= 1) holds the half-open
   magnitude class [2^(b-1), 2^b - 1].  63 buckets cover the full positive
   [int] range, so [observe] never saturates silently.  Percentiles are
   estimated by linear interpolation inside the bucket that holds the
   requested rank — the estimate is therefore always within the bucket
   bounds of the true order statistic (tested against a brute-force
   quantile in test_obs.ml). *)

let nbuckets = 63

type t = {
  mutable count : int;
  mutable sum : int;
  mutable vmin : int;
  mutable vmax : int;
  buckets : int array;
}

let create () =
  { count = 0; sum = 0; vmin = max_int; vmax = min_int;
    buckets = Array.make nbuckets 0 }

let bucket_of v =
  if v <= 0 then 0
  else begin
    (* floor(log2 v) + 1, by position of the highest set bit. *)
    let b = ref 0 and x = ref v in
    while !x > 0 do
      incr b;
      x := !x lsr 1
    done;
    min (nbuckets - 1) !b
  end

(* Inclusive bounds of bucket [b]. *)
let bucket_lo b = if b = 0 then 0 else 1 lsl (b - 1)
let bucket_hi b = if b = 0 then 0 else (1 lsl b) - 1

let observe t v =
  t.count <- t.count + 1;
  t.sum <- t.sum + v;
  if v < t.vmin then t.vmin <- v;
  if v > t.vmax then t.vmax <- v;
  let b = bucket_of v in
  t.buckets.(b) <- t.buckets.(b) + 1

let count t = t.count
let sum t = t.sum
let min_value t = if t.count = 0 then 0 else t.vmin
let max_value t = if t.count = 0 then 0 else t.vmax
let mean t = if t.count = 0 then 0. else float_of_int t.sum /. float_of_int t.count

(* Non-empty buckets as (lo, hi, count), clipped to the observed range so
   exported bounds stay meaningful for the tail bucket. *)
let nonzero_buckets t =
  let acc = ref [] in
  for b = nbuckets - 1 downto 0 do
    if t.buckets.(b) > 0 then
      acc :=
        (max (bucket_lo b) (min_value t), min (bucket_hi b) (max_value t),
         t.buckets.(b))
        :: !acc
  done;
  !acc

(* Value at quantile [q] in [0,1]: rank r = ceil(q * count) (at least 1),
   interpolated linearly within the bucket containing rank r. *)
let percentile t q =
  if t.count = 0 then 0.
  else begin
    let q = if q < 0. then 0. else if q > 1. then 1. else q in
    let target = max 1 (int_of_float (ceil (q *. float_of_int t.count))) in
    let b = ref 0 and cum = ref 0 in
    while !cum + t.buckets.(!b) < target do
      cum := !cum + t.buckets.(!b);
      incr b
    done;
    let lo = float_of_int (max (bucket_lo !b) t.vmin)
    and hi = float_of_int (min (bucket_hi !b) t.vmax) in
    let inside = t.buckets.(!b) in
    if inside <= 1 then lo
    else
      lo
      +. (hi -. lo)
         *. (float_of_int (target - !cum - 1) /. float_of_int (inside - 1))
  end

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

let summarize t =
  {
    s_count = t.count;
    s_sum = t.sum;
    s_min = min_value t;
    s_max = max_value t;
    s_mean = mean t;
    s_p50 = percentile t 0.50;
    s_p90 = percentile t 0.90;
    s_p99 = percentile t 0.99;
  }

let pp ppf t =
  let s = summarize t in
  Format.fprintf ppf
    "n=%d sum=%d min=%d max=%d mean=%.1f p50=%.1f p90=%.1f p99=%.1f" s.s_count
    s.s_sum s.s_min s.s_max s.s_mean s.s_p50 s.s_p90 s.s_p99
