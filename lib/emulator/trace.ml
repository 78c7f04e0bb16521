type t = {
  mutable data : int array;
  mutable len : int;
  mutable ops : int;
  mutable mops : int;
}

let create () = { data = Array.make 1024 0; len = 0; ops = 0; mops = 0 }

let add t b =
  if t.len = Array.length t.data then begin
    let data = Array.make (2 * t.len) 0 in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end;
  t.data.(t.len) <- b;
  t.len <- t.len + 1

let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Trace.get";
  t.data.(i)

let record_ops t ~ops ~mops =
  t.ops <- t.ops + ops;
  t.mops <- t.mops + mops

let total_ops t = t.ops
let total_mops t = t.mops

let visits t ~num_blocks =
  let v = Array.make num_blocks 0 in
  for i = 0 to t.len - 1 do
    v.(t.data.(i)) <- v.(t.data.(i)) + 1
  done;
  v

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let to_array t = Array.sub t.data 0 t.len
