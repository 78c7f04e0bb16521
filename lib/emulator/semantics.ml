let wrap32 v =
  let m = v land 0xFFFFFFFF in
  if m >= 0x80000000 then m - 0x100000000 else m

let to_unsigned v = v land 0xFFFFFFFF

let alu (op : Tepic.Opcode.t) a b =
  let r =
    match op with
    | ADD -> a + b
    | SUB -> a - b
    | MUL -> a * b
    | DIV -> if b = 0 then 0 else a / b
    | REM -> if b = 0 then 0 else a mod b
    | AND -> a land b
    | OR -> a lor b
    | XOR -> a lxor b
    | NAND -> lnot (a land b)
    | NOR -> lnot (a lor b)
    | SHL -> a lsl (b land 31)
    | SHR -> to_unsigned a lsr (b land 31)
    | SRA -> a asr (b land 31)
    | MOV -> a
    | ABS -> abs a
    | MIN -> Int.min a b
    | MAX -> Int.max a b
    | _ -> invalid_arg "Semantics.alu: not an ALU opcode"
  in
  wrap32 r

let cmpp (op : Tepic.Opcode.t) a b =
  match op with
  | CMPP_EQ -> a = b
  | CMPP_NE -> a <> b
  | CMPP_LT -> a < b
  | CMPP_LE -> a <= b
  | CMPP_GT -> a > b
  | CMPP_GE -> a >= b
  | CMPP_LTU -> to_unsigned a < to_unsigned b
  | CMPP_GEU -> to_unsigned a >= to_unsigned b
  | _ -> invalid_arg "Semantics.cmpp: not a compare opcode"

let fpu (op : Tepic.Opcode.t) a b =
  let r =
    match op with
  | FADD -> a +. b
  | FSUB -> a -. b
  | FMUL -> a *. b
  | FDIV -> if b = 0. then 0. else a /. b
  | FABS -> Float.abs a
  | FNEG -> -.a
  | FSQRT -> if a < 0. then 0. else sqrt a
  | FMIN -> Float.min a b
  | FMAX -> Float.max a b
    | FCMP -> if a < b then 1. else 0.
    | FMOV -> a
    | _ -> invalid_arg "Semantics.fpu: not an FPU opcode"
  in
  (* Keep the FP domain total and bit-exactly reproducible across the
     parallel machine and the sequential reference: flush non-finite
     results (and negative zero) to zero. *)
  if Float.is_finite r && r <> 0. then r else 0.

let ftoi f =
  if Float.is_nan f then 0
  else if f >= 2147483647. then 2147483647
  else if f <= -2147483648. then -2147483648
  else wrap32 (int_of_float f)

let mem_index ~size addr =
  if size <= 0 then invalid_arg "Semantics.mem_index: empty memory";
  let m = addr mod size in
  if m < 0 then m + size else m

let narrow ~bhwx v =
  match bhwx with
  | 0 ->
      let b = v land 0xFF in
      if b >= 0x80 then b - 0x100 else b
  | 1 ->
      let h = v land 0xFFFF in
      if h >= 0x8000 then h - 0x10000 else h
  | 2 | 3 -> wrap32 v
  | _ -> invalid_arg "Semantics.narrow: bad BHWX"
