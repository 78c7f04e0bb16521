(* Statistical regression detection between two sets of benchmark rows.

   Rows are the JSON objects the bench/ledger writers emit: each carries a
   "name", one or more numeric metrics ("mb_per_s", "seconds", ...) and
   optionally a "samples" array of repeated measurements.

   The comparison is deliberately conservative:

   1. Bootstrap confidence interval.  When both sides carry "samples"
      in the unit of their metric (the metric lies within the range the
      samples span), the relative slowdown of the means is bootstrapped
      (percentile method, deterministic per-row RNG); a verdict is only
      Regressed / Improved when the whole interval is on one side of
      zero AND the point estimate clears [rel_threshold].  Identical
      sample sets give the degenerate interval [0,0] and therefore
      Unchanged — never a false regression, for any seed.

   2. Point fallback.  Rows with only a point estimate, or with samples
      in another unit than their metric, need to move by the larger
      [point_threshold] before they get a verdict: a number with no
      error bars deserves wider margins. *)

type direction = Lower_better | Higher_better

(* Known metric fields, in the order we prefer them when a row carries
   several.  "ns_per_run" is the metric of older "bench" ledger entries,
   which are still compared. *)
let metrics =
  [
    ("ns_per_run", Lower_better);
    ("mb_per_s", Higher_better);
    ("cases_per_s", Higher_better);
    ("visits_per_s", Higher_better);
    ("seconds", Lower_better);
  ]

type verdict = Improved | Regressed | Unchanged

let verdict_name = function
  | Improved -> "improved"
  | Regressed -> "regressed"
  | Unchanged -> "unchanged"

type config = {
  rel_threshold : float;
      (* minimum relative change for CI-backed verdicts *)
  point_threshold : float;
      (* minimum relative change for point-only verdicts *)
  resamples : int;
  confidence : float;  (* two-sided, e.g. 0.95 *)
  seed : int;
}

let default =
  {
    rel_threshold = 0.10;
    point_threshold = 0.25;
    resamples = 1000;
    confidence = 0.95;
    seed = 0x9e3779b9;
  }

type row = {
  name : string;
  metric : string;
  base : float;
  cur : float;
  slowdown : float;  (* relative change, sign-normalized: > 0 is worse *)
  ci : (float * float) option;  (* bootstrap CI over [slowdown] *)
  verdict : verdict;
}

(* ------------------------------------------------------------------ *)
(* Row field access *)

let num_field k j =
  match Json.member k j with Some (Json.Num n) -> Some n | _ -> None

let samples_field j =
  match Option.bind (Json.member "samples" j) Json.to_list with
  | Some l ->
      let fs = List.filter_map (function Json.Num n -> Some n | _ -> None) l in
      if fs = [] then None else Some (Array.of_list fs)
  | None -> None

let pick_metric base cur =
  List.find_opt
    (fun (k, _) -> num_field k base <> None && num_field k cur <> None)
    metrics

(* Samples measure the row's metric when the metric lies within the range
   they span, up to a relative rounding tolerance.  Rows that recorded
   their samples in another unit (image-decode rows once carried seconds
   under [mb_per_s]) fail this, and bootstrapping them would compare the
   wrong numbers. *)
let in_unit metric samples =
  let tol = 1e-6 *. Float.abs metric in
  Array.fold_left Float.min infinity samples <= metric +. tol
  && metric -. tol <= Array.fold_left Float.max neg_infinity samples

(* ------------------------------------------------------------------ *)
(* Deterministic bootstrap *)

(* xorshift64*, seeded per row from the config seed and the row name
   (FNV-style fold, truncated to OCaml's 63-bit int — only determinism
   matters here), so results do not depend on row order and are
   reproducible. *)
let mix_name seed name =
  let h = ref 0x2bf29ce484222325 in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x100000001b3)
    name;
  let s = !h lxor seed in
  ref (if s = 0 then 0x2545F4914F6CDD1D else s)

let next_int state bound =
  let s = !state in
  let s = s lxor (s lsl 13) in
  let s = s lxor (s lsr 7) in
  let s = s lxor (s lsl 17) in
  state := s;
  (s land max_int) mod bound

(* Relative slowdown of [cur] vs [base], sign-normalized so positive is
   always "worse".  Guards division by ~0. *)
let slowdown_of dir ~base ~cur =
  if Float.abs base < 1e-30 then 0.
  else
    match dir with
    | Lower_better -> (cur -. base) /. base
    | Higher_better -> (base -. cur) /. base

(* Percentile bootstrap over the relative slowdown of resampled means. *)
let bootstrap_ci cfg ~name dir base_samples cur_samples =
  let state = mix_name cfg.seed name in
  let resample a =
    let n = Array.length a in
    let acc = ref 0. in
    for _ = 1 to n do
      acc := !acc +. a.(next_int state n)
    done;
    !acc /. float_of_int n
  in
  let deltas =
    Array.init cfg.resamples (fun _ ->
        let mb = resample base_samples in
        let mc = resample cur_samples in
        slowdown_of dir ~base:mb ~cur:mc)
  in
  Array.sort compare deltas;
  let n = cfg.resamples in
  let alpha = (1. -. cfg.confidence) /. 2. in
  let idx q =
    let i = int_of_float (Float.round (q *. float_of_int (n - 1))) in
    deltas.(max 0 (min (n - 1) i))
  in
  (idx alpha, idx (1. -. alpha))

(* ------------------------------------------------------------------ *)
(* Comparison *)

let compare_row cfg name base_j cur_j =
  match pick_metric base_j cur_j with
  | None -> None
  | Some (metric, dir) ->
      let base = Option.get (num_field metric base_j) in
      let cur = Option.get (num_field metric cur_j) in
      let point = slowdown_of dir ~base ~cur in
      let ci =
        match (samples_field base_j, samples_field cur_j) with
        | Some bs, Some cs
          when Array.length bs > 1 && Array.length cs > 1
               && in_unit base bs && in_unit cur cs ->
            Some (bootstrap_ci cfg ~name dir bs cs)
        | _ -> None
      in
      let verdict =
        match ci with
        | Some (lo, hi) ->
            if lo > 0. && point >= cfg.rel_threshold then Regressed
            else if hi < 0. && point <= -.cfg.rel_threshold then Improved
            else Unchanged
        | None ->
            if point >= cfg.point_threshold then Regressed
            else if point <= -.cfg.point_threshold then Improved
            else Unchanged
      in
      Some { name; metric; base; cur; slowdown = point; ci; verdict }

let name_of j =
  match Json.member "name" j with Some (Json.Str s) -> Some s | _ -> None

(* Compare two row sets, keyed by "name"; rows present on only one side
   are skipped (a new benchmark has no baseline to regress against). *)
let rows ?(config = default) ~base ~cur () =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun j -> match name_of j with Some n -> Hashtbl.replace tbl n j | None -> ())
    base;
  List.filter_map
    (fun cur_j ->
      match name_of cur_j with
      | None -> None
      | Some n -> (
          match Hashtbl.find_opt tbl n with
          | None -> None
          | Some base_j -> compare_row config n base_j cur_j))
    cur

type summary = { improved : int; regressed : int; unchanged : int }

let summarize rs =
  List.fold_left
    (fun s r ->
      match r.verdict with
      | Improved -> { s with improved = s.improved + 1 }
      | Regressed -> { s with regressed = s.regressed + 1 }
      | Unchanged -> { s with unchanged = s.unchanged + 1 })
    { improved = 0; regressed = 0; unchanged = 0 }
    rs

let any_regressed rs = List.exists (fun r -> r.verdict = Regressed) rs

let row_to_json r =
  Json.Obj
    ([
       ("name", Json.Str r.name);
       ("metric", Json.Str r.metric);
       ("base", Json.Num r.base);
       ("cur", Json.Num r.cur);
       ("slowdown", Json.Num r.slowdown);
     ]
    @ (match r.ci with
      | Some (lo, hi) ->
          [ ("ci_lo", Json.Num lo); ("ci_hi", Json.Num hi) ]
      | None -> [])
    @ [ ("verdict", Json.Str (verdict_name r.verdict)) ])

(* ------------------------------------------------------------------ *)
(* Scalar snapshot deltas (cccs stats --baseline): pairwise numeric diff
   of the "counters" and "gauges" sections of two cccs-stats snapshots. *)

type scalar_delta = { sname : string; sbase : float; scur : float }

let scalar_fields section j =
  match Json.member section j with
  | Some (Json.Obj kvs) ->
      List.filter_map
        (fun (k, v) ->
          match v with
          | Json.Num n -> Some (section ^ "." ^ k, n)
          | _ -> None)
        kvs
  | _ -> []

let snapshot_deltas ~base ~cur =
  let base_fields =
    scalar_fields "counters" base @ scalar_fields "gauges" base
  in
  let cur_fields = scalar_fields "counters" cur @ scalar_fields "gauges" cur in
  let tbl = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) base_fields;
  List.filter_map
    (fun (k, v) ->
      match Hashtbl.find_opt tbl k with
      | Some b when b <> v -> Some { sname = k; sbase = b; scur = v }
      | Some _ -> None
      | None -> Some { sname = k; sbase = 0.; scur = v })
    cur_fields
