(* Optional gshare direction predictor (the paper's "more elaborate branch
   prediction" future work): a global history register XOR-indexes a
   pattern history table of 2-bit counters.  Targets still come from each
   ATB entry's last-target register. *)
type gshare = {
  history_bits : int;
  mutable history : int;
  pht : int array;
}

(* One slot per block id: [resident] orders the resident entries by
   recency, and a block's predictor state is meaningful only while it is
   resident.  The ATT in ROM is static, so prediction state is lost when
   an entry is evicted, exactly like a tag-indexed BTB.  We model that. *)
type t = {
  capacity : int;
  resident : Lru.t;
  counter : int array;  (* 2-bit saturating: 0-1 not taken, 2-3 taken *)
  last_target : int array;
  num_blocks : int;
  gshare : gshare option;
  mutable hits : int;
  mutable misses : int;
}

let create cfg ~num_blocks =
  let gshare =
    match cfg.Config.predictor with
    | Config.Two_bit -> None
    | Config.Gshare bits ->
        if bits < 2 || bits > 14 then invalid_arg "Atb.create: history bits";
        Some
          { history_bits = bits; history = 0; pht = Array.make (1 lsl bits) 1 }
  in
  {
    capacity = cfg.Config.atb_entries;
    resident = Lru.create num_blocks;
    counter = Array.make num_blocks 0;
    last_target = Array.make num_blocks 0;
    num_blocks;
    gshare;
    hits = 0;
    misses = 0;
  }

let lookup t block =
  if Lru.mem t.resident block then begin
    Lru.touch t.resident block;
    t.hits <- t.hits + 1;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    (* A full table evicts its LRU entry; an empty one always takes the
       new entry, so a zero-entry ATB behaves as a one-entry one. *)
    let n = Lru.size t.resident in
    if n > 0 && n >= t.capacity then ignore (Lru.pop t.resident);
    Lru.touch t.resident block;
    t.counter.(block) <- 1;
    (* The fall-through, clamped to the layout as in [predict]: gshare can
       predict taken for an entry no update has trained yet. *)
    t.last_target.(block) <- Int.min (block + 1) (t.num_blocks - 1);
    false
  end

let gshare_index g block = (block lxor g.history) land ((1 lsl g.history_bits) - 1)

let predicts_taken t block =
  match t.gshare with
  | Some g -> g.pht.(gshare_index g block) >= 2
  | None -> Lru.mem t.resident block && t.counter.(block) >= 2

let predict t block =
  let fall = Int.min (block + 1) (t.num_blocks - 1) in
  if predicts_taken t block && Lru.mem t.resident block then
    t.last_target.(block)
  else fall

let update t block ~next =
  let taken = next <> block + 1 in
  (match t.gshare with
  | Some g ->
      let i = gshare_index g block in
      g.pht.(i) <-
        (if taken then Int.min 3 (g.pht.(i) + 1)
         else Int.max 0 (g.pht.(i) - 1));
      g.history <-
        ((g.history lsl 1) lor (if taken then 1 else 0))
        land ((1 lsl g.history_bits) - 1)
  | None -> ());
  if Lru.mem t.resident block then
    if taken then begin
      t.counter.(block) <- Int.min 3 (t.counter.(block) + 1);
      t.last_target.(block) <- next
    end
    else t.counter.(block) <- Int.max 0 (t.counter.(block) - 1)

let hits t = t.hits
let misses t = t.misses

let reset t =
  Lru.clear t.resident;
  (match t.gshare with
  | Some g ->
      g.history <- 0;
      Array.fill g.pht 0 (Array.length g.pht) 1
  | None -> ());
  t.hits <- 0;
  t.misses <- 0
