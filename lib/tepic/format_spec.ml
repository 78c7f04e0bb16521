let op_bits = 40
let op_bytes = 5

type field = {
  fname : string;
  width : int;
}

let f fname width = { fname; width }

let prefix = [ f "T" 1; f "S" 1; f "OPT" 2; f "OPCODE" 5 ]
let prefix_bits = List.fold_left (fun a fd -> a + fd.width) 0 prefix

(* Field layouts transcribed from Table 2 of the paper.  Each list sums to
   40 bits; [check] below enforces that at module initialization. *)
let alu =
  prefix
  @ [
      f "SRC1" 5; f "SRC2" 5; f "BHWX" 2; f "RES" 8; f "DEST" 5; f "L1" 1;
      f "PRED" 5;
    ]

let cmpp =
  prefix
  @ [
      f "SRC1" 5; f "SRC2" 5; f "BHWX" 2; f "D1" 3; f "RES" 5; f "DEST" 5;
      f "L1" 1; f "PRED" 5;
    ]

let ldi = prefix @ [ f "IMM" 20; f "DEST" 5; f "L1" 1; f "PRED" 5 ]

let fpu =
  prefix
  @ [
      f "SRC1" 5; f "SRC2" 5; f "SD" 1; f "RES" 6; f "TSS" 3; f "DEST" 5;
      f "L1" 1; f "PRED" 5;
    ]

let load =
  prefix
  @ [
      f "SRC1" 5; f "BHWX" 2; f "SCS" 2; f "RES" 1; f "TCS" 2; f "RES2" 3;
      f "LAT" 5; f "DEST" 5; f "RSV" 1; f "PRED" 5;
    ]

let store =
  prefix
  @ [
      f "SRC1" 5; f "SRC2" 5; f "BHWX" 2; f "TCS" 2; f "RES" 11; f "L1" 1;
      f "PRED" 5;
    ]

let branch = prefix @ [ f "SRC1" 5; f "COUNTER" 5; f "TARGET" 16; f "PRED" 5 ]

let layout : Opcode.kind -> field list = function
  | K_alu -> alu
  | K_cmpp -> cmpp
  | K_ldi -> ldi
  | K_fpu -> fpu
  | K_load -> load
  | K_store -> store
  | K_branch -> branch

let is_reserved = function "RES" | "RES2" | "RSV" -> true | _ -> false

let kinds : Opcode.kind list =
  [ K_alu; K_cmpp; K_ldi; K_fpu; K_load; K_store; K_branch ]

let kind_to_string : Opcode.kind -> string = function
  | K_alu -> "alu"
  | K_cmpp -> "cmpp"
  | K_ldi -> "ldi"
  | K_fpu -> "fpu"
  | K_load -> "load"
  | K_store -> "store"
  | K_branch -> "branch"

let () =
  (* Table 2 transcription check: every format is exactly 40 bits wide. *)
  List.iter
    (fun k ->
      let total = List.fold_left (fun a fd -> a + fd.width) 0 (layout k) in
      if total <> op_bits then
        failwith
          (Printf.sprintf "Format_spec: %s layout is %d bits, expected %d"
             (kind_to_string k) total op_bits))
    kinds

let all_field_names =
  let seen = Hashtbl.create 31 in
  let names = ref [] in
  List.iter
    (fun k ->
      List.iter
        (fun fd ->
          if not (Hashtbl.mem seen fd.fname) then begin
            Hashtbl.add seen fd.fname ();
            names := fd.fname :: !names
          end)
        (layout k))
    kinds;
  List.rev !names
