type t = {
  live : bool array;
  prev : int array;  (* towards the most recent; -1 at the head *)
  next : int array;  (* towards the least recent; -1 at the tail *)
  mutable head : int;
  mutable tail : int;
  mutable size : int;
}

let create n =
  let links () = Array.make n (-1) in
  { live = Array.make n false; prev = links (); next = links ();
    head = -1; tail = -1; size = 0 }

let mem t i = t.live.(i)
let size t = t.size

let unlink t i =
  let p = t.prev.(i) and n = t.next.(i) in
  if p >= 0 then t.next.(p) <- n else t.head <- n;
  if n >= 0 then t.prev.(n) <- p else t.tail <- p

let touch t i =
  if t.live.(i) then unlink t i
  else begin
    t.live.(i) <- true;
    t.size <- t.size + 1
  end;
  t.prev.(i) <- -1;
  t.next.(i) <- t.head;
  if t.head >= 0 then t.prev.(t.head) <- i else t.tail <- i;
  t.head <- i

let pop t =
  let i = t.tail in
  unlink t i;
  t.live.(i) <- false;
  t.size <- t.size - 1;
  i

let clear t =
  Array.fill t.live 0 (Array.length t.live) false;
  t.head <- -1;
  t.tail <- -1;
  t.size <- 0
