(** Diagnostics for the whole-pipeline static verifier.

    Every finding carries a stable code (e.g. [CCCS-E013]) drawn from
    {!registry}, a severity, a location inside the pipeline artifact being
    checked (workload / block / instruction / bit offset) and a free-form
    message.  Codes are stable across releases so CI filters and the
    negative-path tests can key on them. *)

type severity = Error | Warning | Info

(** Where in the pipeline artifact the finding points.  [block], [inst] and
    [bit] refine the position when meaningful: a CFG/dataflow finding has a
    block and instruction index, a schedule finding a block and MOP index,
    an encoding finding a block and bit offset into the ROM image. *)
type loc = {
  workload : string;
  scheme : string option;
      (** the encoding scheme a finding is attributed to, when one is *)
  block : int option;
  inst : int option;
  bit : int option;
}

type t = {
  code : string;  (** stable code, e.g. ["CCCS-E001"] *)
  severity : severity;
  loc : loc;
  message : string;
}

(** [loc ?scheme ?block ?inst ?bit workload] builds a location. *)
val loc : ?scheme:string -> ?block:int -> ?inst:int -> ?bit:int -> string -> loc

(** [make ~code ~loc message] builds a diagnostic; the severity comes from
    {!registry}.  Raises [Invalid_argument] on a code not in the
    registry — every emitted code must be documented. *)
val make : code:string -> loc:loc -> string -> t

(** The diagnostic-code registry: code, severity, one-line summary.  This
    is the authoritative list; DESIGN.md documents it. *)
val registry : (string * severity * string) list

val severity_of_code : string -> severity

val is_error : t -> bool

(** [failed_schemes diags] — the schemes the errors among [diags] are
    attributed to, sorted, each once.  Warnings and errors that name no
    scheme are left out. *)
val failed_schemes : t list -> string list

val pp_severity : Format.formatter -> severity -> unit
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** {1 Collector} *)

(** Accumulates diagnostics across passes and workloads and summarizes
    them into counts and an exit status. *)
module Collector : sig
  type diag = t
  type t

  val create : unit -> t
  val add : t -> diag -> unit
  val add_list : t -> diag list -> unit

  (** Diagnostics in the order they were added. *)
  val diags : t -> diag list

  val errors : t -> int
  val warnings : t -> int

  (** [exit_status c] is 1 when any error was collected, else 0. *)
  val exit_status : t -> int

  (** [pp_summary ppf c] prints the "N errors, M warnings" trailer. *)
  val pp_summary : Format.formatter -> t -> unit
end
