type severity = Error | Warning | Info

type loc = {
  workload : string;
  scheme : string option;
  block : int option;
  inst : int option;
  bit : int option;
}

type t = {
  code : string;
  severity : severity;
  loc : loc;
  message : string;
}

let loc ?scheme ?block ?inst ?bit workload =
  { workload; scheme; block; inst; bit }

(* The authoritative code registry.  Codes are append-only: once shipped, a
   code keeps its meaning forever (CI filters and tests key on them). *)
let registry =
  [
    (* IR / CFG dataflow (Dataflow_check) *)
    ("CCCS-E001", Error, "use of a register with no reaching definition");
    ( "CCCS-E002",
      Error,
      "terminator operand (guard predicate, loop counter or link register) \
       has no reaching definition" );
    ( "CCCS-E003",
      Error,
      "return reads a link register no call ever defines" );
    ("CCCS-W004", Warning, "definition is never used (dead code)");
    ("CCCS-W005", Warning, "block is unreachable from the entry");
    ( "CCCS-W006",
      Warning,
      "register is live into the entry block (treated as an external input)" );
    (* Schedule / MOP packing (Schedule_check) *)
    ("CCCS-E010", Error, "tail bit set on a non-final op of a MOP");
    ("CCCS-E011", Error, "final op of a MOP does not carry the tail bit");
    ("CCCS-E012", Error, "empty MOP stored in the image (zero-NOP violation)");
    ("CCCS-E013", Error, "MOP oversubscribes the issue width");
    ("CCCS-E014", Error, "MOP oversubscribes the memory units");
    ("CCCS-E015", Error, "branch op is not in the final slot of its block");
    ( "CCCS-E016",
      Error,
      "same-cycle hazard: double write, or a branch sampling a register \
       its own cycle produces" );
    (* Huffman code tables (Encoding_check) *)
    ("CCCS-E020", Error, "code table is not prefix-free");
    ("CCCS-E021", Error, "code table oversubscribes the Kraft budget");
    ( "CCCS-W022",
      Warning,
      "code table is incomplete (Kraft sum below capacity)" );
    ("CCCS-E023", Error, "canonical code ordering violated");
    ( "CCCS-E024",
      Error,
      "declared decoder parameters disagree with the code tables" );
    (* Scheme image geometry (Encoding_check) *)
    ("CCCS-E030", Error, "block offset is not byte-aligned");
    ("CCCS-E031", Error, "block extents overlap or are out of order");
    ("CCCS-E032", Error, "code_bits disagrees with the image length");
    ( "CCCS-E033",
      Error,
      "block sizes plus alignment padding do not sum to the image size" );
    (* Tailored ISA spec (Encoding_check) *)
    ("CCCS-E040", Error, "tailored dense map is not injective");
    ("CCCS-E041", Error, "tailored dense map overflows its declared width");
    ( "CCCS-E042",
      Error,
      "program value falls outside its tailored dense map" );
    ( "CCCS-E043",
      Error,
      "tailored per-format width table disagrees with the field layout" );
    (* Generated decoder Verilog (Decoder_check) *)
    ( "CCCS-E050",
      Error,
      "live codeword routes through a default: case of the decoder" );
    ( "CCCS-E051",
      Error,
      "decoder OPT dispatch lacks a case arm for a live operation type" );
    (* Image-level translation validation (Image_check) *)
    ( "CCCS-E100",
      Error,
      "recovered block boundary disagrees with the scheme's block index" );
    ( "CCCS-E101",
      Error,
      "abstract decode fell off the published code tables or ran out of \
       image bits" );
    ( "CCCS-E102",
      Error,
      "recovered op stream disagrees with the scheduled program \
       (round-trip mismatch)" );
    ( "CCCS-E103",
      Error,
      "recovered branch targets a block the ATB cannot map" );
    ( "CCCS-E104",
      Error,
      "recovered field indexes past its published dense table (tailored \
       map or dictionary)" );
    ( "CCCS-E105",
      Error,
      "recovered frame length or guard word disagrees with the payload" );
    ( "CCCS-E106",
      Error,
      "program emits a symbol missing from the published codebook" );
    ( "CCCS-W107",
      Warning,
      "a single-bit flip can silently desynchronize codewords to the end \
       of an unframed block" );
    (* Decoder certification (Certify) *)
    ( "CCCS-E200",
      Error,
      "decode automaton construction failed: published codebook is not \
       prefix-free" );
    ( "CCCS-E201",
      Error,
      "decode totality proof failed: a reachable decoder state can consume \
       past the declared maximum code length" );
    ( "CCCS-E202",
      Error,
      "Huffman LUT root-table entry disagrees with the canonical decode \
       automaton" );
    ( "CCCS-E203",
      Error,
      "Huffman LUT overflow sub-table entry disagrees with the canonical \
       decode automaton" );
    ( "CCCS-E204",
      Error,
      "decode model references an unpublished codebook or a built block \
       exceeds its certified size bound" );
    ( "CCCS-W205",
      Warning,
      "published codebook has no synchronizing sequence: a desynchronized \
       decoder can never be forced back into lock-step inside a block" );
    (* Static fetch-timing analysis (Cache_ai / Timing_check) *)
    ( "CCCS-E300",
      Error,
      "no finite WCET: the recovered CFG has a reachable cycle and no loop \
       bound is available from a trace or a declared default" );
    ( "CCCS-E301",
      Error,
      "simulated fetch cycles exceed the static WCET bound: the abstract \
       interpretation is unsound for this scheme" );
    ( "CCCS-E302",
      Error,
      "a block classified always-hit missed in simulation: the must-cache \
       or must-ATB domain over-promised" );
    ( "CCCS-E303",
      Error,
      "a block classified always-miss hit in simulation: the may-analysis \
       under-approximated the reachable cache states" );
    ( "CCCS-E304",
      Error,
      "recovered CFG successor edge points outside the program's block \
       range" );
    ( "CCCS-E305",
      Error,
      "executed trace takes an edge the recovered CFG does not contain: \
       the timing analysis ran over an unsound control-flow model" );
    ( "CCCS-W306",
      Warning,
      "unclassified-heavy CFG: most block fetches resolved to neither \
       always-hit nor always-miss, so the WCET bound is dominated by \
       worst-case misses" );
    (* Protected block framing (Encoding_check) *)
    ( "CCCS-E500",
      Error,
      "protected frame guard word is missing, mis-sized or disagrees with \
       the payload CRC" );
    ( "CCCS-E501",
      Error,
      "protection framing bits are unaccounted in the frame metadata" );
    ( "CCCS-E502",
      Error,
      "protected frame length field is too narrow or disagrees with the \
       payload extent" );
  ]

let severity_of_code code =
  match List.find_opt (fun (c, _, _) -> c = code) registry with
  | Some (_, sev, _) -> sev
  | None -> invalid_arg (Printf.sprintf "Diag: unregistered code %s" code)

let make ~code ~loc message =
  { code; severity = severity_of_code code; loc; message }

let is_error d = d.severity = Error

let failed_schemes diags =
  List.sort_uniq compare
    (List.filter_map
       (fun d -> if is_error d then d.loc.scheme else None)
       diags)

let pp_severity ppf = function
  | Error -> Format.pp_print_string ppf "error"
  | Warning -> Format.pp_print_string ppf "warning"
  | Info -> Format.pp_print_string ppf "info"

let pp_loc ppf l =
  Format.pp_print_string ppf l.workload;
  Option.iter (fun s -> Format.fprintf ppf ":%s" s) l.scheme;
  Option.iter (fun b -> Format.fprintf ppf ":block %d" b) l.block;
  Option.iter (fun i -> Format.fprintf ppf ":inst %d" i) l.inst;
  Option.iter (fun b -> Format.fprintf ppf ":bit %d" b) l.bit

let pp ppf d =
  Format.fprintf ppf "%a: %a: %s: %s" pp_loc d.loc pp_severity d.severity
    d.code d.message

let to_string d = Format.asprintf "%a" pp d

module Collector = struct
  type diag = t

  type t = {
    mutable rev : diag list;
    mutable errors : int;
    mutable warnings : int;
  }

  let create () = { rev = []; errors = 0; warnings = 0 }

  let add c d =
    c.rev <- d :: c.rev;
    match d.severity with
    | Error -> c.errors <- c.errors + 1
    | Warning -> c.warnings <- c.warnings + 1
    | Info -> ()

  let add_list c ds = List.iter (add c) ds
  let diags c = List.rev c.rev
  let errors c = c.errors
  let warnings c = c.warnings
  let exit_status c = if c.errors > 0 then 1 else 0

  let pp_summary ppf c =
    Format.fprintf ppf "%d error%s, %d warning%s" c.errors
      (if c.errors = 1 then "" else "s")
      c.warnings
      (if c.warnings = 1 then "" else "s")
end
