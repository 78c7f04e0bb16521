type optype = Int | Float | Mem | Branch

type kind = K_alu | K_cmpp | K_ldi | K_fpu | K_load | K_store | K_branch

type t =
  | ADD | SUB | MUL | DIV | REM
  | AND | OR | XOR | NAND | NOR
  | SHL | SHR | SRA
  | MOV | ABS | MIN | MAX
  | LDI
  | CMPP_EQ | CMPP_NE | CMPP_LT | CMPP_LE | CMPP_GT | CMPP_GE
  | CMPP_LTU | CMPP_GEU
  | FADD | FSUB | FMUL | FDIV | FABS | FNEG | FSQRT
  | FMIN | FMAX | FCMP | ITOF | FTOI | FMOV
  | LB | LH | LW | LX
  | SB | SH | SW | SX
  | BR | BRCT | BRCF | BRL | RET | BRLC

(* One row per opcode: (opcode, optype, 5-bit code, format kind, mnemonic).
   Codes are stable; gaps in the space are deliberate (stores start at 16 so
   that bit 4 of the opcode distinguishes load from store, as a PLA-friendly
   decoder would want). *)
let table : (t * optype * int * kind * string) list =
  [
    (ADD, Int, 0, K_alu, "add");
    (SUB, Int, 1, K_alu, "sub");
    (MUL, Int, 2, K_alu, "mul");
    (DIV, Int, 3, K_alu, "div");
    (REM, Int, 4, K_alu, "rem");
    (AND, Int, 5, K_alu, "and");
    (OR, Int, 6, K_alu, "or");
    (XOR, Int, 7, K_alu, "xor");
    (NAND, Int, 8, K_alu, "nand");
    (NOR, Int, 9, K_alu, "nor");
    (SHL, Int, 10, K_alu, "shl");
    (SHR, Int, 11, K_alu, "shr");
    (SRA, Int, 12, K_alu, "sra");
    (MOV, Int, 13, K_alu, "mov");
    (ABS, Int, 14, K_alu, "abs");
    (MIN, Int, 15, K_alu, "min");
    (MAX, Int, 16, K_alu, "max");
    (LDI, Int, 17, K_ldi, "ldi");
    (CMPP_EQ, Int, 24, K_cmpp, "cmpp.eq");
    (CMPP_NE, Int, 25, K_cmpp, "cmpp.ne");
    (CMPP_LT, Int, 26, K_cmpp, "cmpp.lt");
    (CMPP_LE, Int, 27, K_cmpp, "cmpp.le");
    (CMPP_GT, Int, 28, K_cmpp, "cmpp.gt");
    (CMPP_GE, Int, 29, K_cmpp, "cmpp.ge");
    (CMPP_LTU, Int, 30, K_cmpp, "cmpp.ltu");
    (CMPP_GEU, Int, 31, K_cmpp, "cmpp.geu");
    (FADD, Float, 0, K_fpu, "fadd");
    (FSUB, Float, 1, K_fpu, "fsub");
    (FMUL, Float, 2, K_fpu, "fmul");
    (FDIV, Float, 3, K_fpu, "fdiv");
    (FABS, Float, 4, K_fpu, "fabs");
    (FNEG, Float, 5, K_fpu, "fneg");
    (FSQRT, Float, 6, K_fpu, "fsqrt");
    (FMIN, Float, 7, K_fpu, "fmin");
    (FMAX, Float, 8, K_fpu, "fmax");
    (FCMP, Float, 9, K_fpu, "fcmp");
    (ITOF, Float, 10, K_fpu, "itof");
    (FTOI, Float, 11, K_fpu, "ftoi");
    (FMOV, Float, 12, K_fpu, "fmov");
    (LB, Mem, 0, K_load, "lb");
    (LH, Mem, 1, K_load, "lh");
    (LW, Mem, 2, K_load, "lw");
    (LX, Mem, 3, K_load, "lx");
    (SB, Mem, 16, K_store, "sb");
    (SH, Mem, 17, K_store, "sh");
    (SW, Mem, 18, K_store, "sw");
    (SX, Mem, 19, K_store, "sx");
    (BR, Branch, 0, K_branch, "br");
    (BRCT, Branch, 1, K_branch, "brct");
    (BRCF, Branch, 2, K_branch, "brcf");
    (BRL, Branch, 3, K_branch, "brl");
    (RET, Branch, 4, K_branch, "ret");
    (BRLC, Branch, 5, K_branch, "brlc");
  ]

let all = List.map (fun (op, _, _, _, _) -> op) table

(* Dense number of each opcode, in declaration order.  The match is
   exhaustive, so a new opcode cannot be left out; [rows] checks that
   [table] gives each number exactly one row. *)
let index = function
  | ADD -> 0 | SUB -> 1 | MUL -> 2 | DIV -> 3 | REM -> 4
  | AND -> 5 | OR -> 6 | XOR -> 7 | NAND -> 8 | NOR -> 9
  | SHL -> 10 | SHR -> 11 | SRA -> 12
  | MOV -> 13 | ABS -> 14 | MIN -> 15 | MAX -> 16
  | LDI -> 17
  | CMPP_EQ -> 18 | CMPP_NE -> 19 | CMPP_LT -> 20 | CMPP_LE -> 21
  | CMPP_GT -> 22 | CMPP_GE -> 23 | CMPP_LTU -> 24 | CMPP_GEU -> 25
  | FADD -> 26 | FSUB -> 27 | FMUL -> 28 | FDIV -> 29 | FABS -> 30
  | FNEG -> 31 | FSQRT -> 32 | FMIN -> 33 | FMAX -> 34 | FCMP -> 35
  | ITOF -> 36 | FTOI -> 37 | FMOV -> 38
  | LB -> 39 | LH -> 40 | LW -> 41 | LX -> 42
  | SB -> 43 | SH -> 44 | SW -> 45 | SX -> 46
  | BR -> 47 | BRCT -> 48 | BRCF -> 49 | BRL -> 50 | RET -> 51 | BRLC -> 52

(* [table] indexed by [index], built once. *)
let rows =
  let a = Array.make (List.length table) None in
  List.iter
    (fun ((op, _, _, _, _) as r) ->
      if a.(index op) <> None then invalid_arg "Opcode: duplicate row";
      a.(index op) <- Some r)
    table;
  Array.map (function Some r -> r | None -> invalid_arg "Opcode: no row") a

let row op = rows.(index op)

let optype op =
  let _, ty, _, _, _ = row op in
  ty

let code op =
  let _, _, c, _, _ = row op in
  c

let kind op =
  let _, _, _, k, _ = row op in
  k

let mnemonic op =
  let _, _, _, _, m = row op in
  m

let optype_code = function Int -> 0 | Float -> 1 | Mem -> 2 | Branch -> 3

(* [of_code] over the 4 x 32 (type, code) points; the first row of a
   point wins, as in a scan of [table]. *)
let by_code =
  let a = Array.make (4 * 32) None in
  List.iter
    (fun (op, ty, c, _, _) ->
      let i = (optype_code ty * 32) + c in
      if a.(i) = None then a.(i) <- Some op)
    table;
  a

let of_code ty c =
  if c < 0 || c >= 32 then None else by_code.((optype_code ty * 32) + c)

let optype_of_code = function
  | 0 -> Int
  | 1 -> Float
  | 2 -> Mem
  | 3 -> Branch
  | _ -> invalid_arg "Opcode.optype_of_code"

let is_memory op = optype op = Mem
let is_branch op = optype op = Branch

let is_conditional op =
  match op with BRCT | BRCF | BRLC -> true | _ -> false

let pp ppf op = Format.pp_print_string ppf (mnemonic op)
let equal (a : t) b = a = b
