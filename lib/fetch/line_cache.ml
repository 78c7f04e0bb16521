(* Flat storage: slot [set * ways + way] of [tags] holds a line number or
   -1, the same slot of [lru] its age stamp. *)
type t = {
  sets : int;
  ways : int;
  tags : int array;
  lru : int array;
  mutable clock : int;
}

let create cfg =
  let sets = Config.num_sets cfg and ways = cfg.Config.ways in
  {
    sets;
    ways;
    tags = Array.make (sets * ways) (-1);
    lru = Array.make (sets * ways) 0;
    clock = 0;
  }

(* The slot in [lo, hi) holding [line], or -1.  Top level, so a lookup
   allocates no closure. *)
let rec find_slot tags line lo hi =
  if lo = hi then -1
  else if tags.(lo) = line then lo
  else find_slot tags line (lo + 1) hi

(* The first slot of [line]'s set.  Consecutive lines sit in consecutive
   sets, so a span walk steps with [next_base] instead of a division. *)
let set_base t line = line mod t.sets * t.ways

let next_base t b = if b + t.ways = Array.length t.tags then 0 else b + t.ways

let line_resident t line =
  let b = set_base t line in
  find_slot t.tags line b (b + t.ways) >= 0

let rec refresh_from t line last b =
  if line > last then true
  else
    let slot = find_slot t.tags line b (b + t.ways) in
    if slot < 0 then false
    else begin
      t.clock <- t.clock + 1;
      t.lru.(slot) <- t.clock;
      refresh_from t (line + 1) last (next_base t b)
    end

let refresh t ~first ~last = refresh_from t first last (set_base t first)

let touch_line t line b =
  t.clock <- t.clock + 1;
  let slot = find_slot t.tags line b (b + t.ways) in
  if slot >= 0 then begin
    t.lru.(slot) <- t.clock;
    false
  end
  else begin
    (* Evict the LRU way, but prefer an empty one (the last, if several). *)
    let victim = ref b in
    for s = b + 1 to b + t.ways - 1 do
      if t.lru.(s) < t.lru.(!victim) then victim := s
    done;
    for s = b to b + t.ways - 1 do
      if t.tags.(s) = -1 then victim := s
    done;
    t.tags.(!victim) <- line;
    t.lru.(!victim) <- t.clock;
    true
  end

let touch_block t ~first ~last =
  let fetched = ref 0 and b = ref (set_base t first) in
  for l = first to last do
    if touch_line t l !b then incr fetched;
    b := next_base t !b
  done;
  !fetched

let reset t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.lru 0 (Array.length t.lru) 0;
  t.clock <- 0
