type t = {
  capacity_ops : int;
  resident : Lru.t;
  ops : int array;  (* per resident block: its op count *)
  mutable used_ops : int;
  mutable hits : int;
  mutable misses : int;
}

let create cfg ~num_blocks =
  {
    capacity_ops = cfg.Config.l0_ops;
    resident = Lru.create num_blocks;
    ops = Array.make num_blocks 0;
    used_ops = 0;
    hits = 0;
    misses = 0;
  }

let hit t block =
  if Lru.mem t.resident block then begin
    Lru.touch t.resident block;
    t.hits <- t.hits + 1;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    false
  end

let insert t block ~ops =
  if ops <= t.capacity_ops && not (Lru.mem t.resident block) then begin
    while t.used_ops + ops > t.capacity_ops do
      t.used_ops <- t.used_ops - t.ops.(Lru.pop t.resident)
    done;
    Lru.touch t.resident block;
    t.ops.(block) <- ops;
    t.used_ops <- t.used_ops + ops
  end

let hits t = t.hits
let misses t = t.misses

let reset t =
  Lru.clear t.resident;
  t.used_ops <- 0;
  t.hits <- 0;
  t.misses <- 0
