(** Image-level translation validation (the CCCS-E1xx / W107 family).

    Re-decodes each built scheme's raw ROM image with the abstract
    decoder — published tables only, no encoder closures — recovering
    block boundaries, op streams, the CFG and frame integrity
    independently of the encoder, and sweeps single-bit flips to measure
    resynchronization distance.  See the module implementation header for
    the per-code breakdown. *)

type resync_summary = {
  blocks_analyzed : int;
  flips_analyzed : int;
  silent_flips : int;  (** flips no structural check catches *)
  max_distance : int;  (** worst-case codewords desynchronized *)
  worst_block : int;  (** block exhibiting [max_distance] *)
}

type scheme_summary = {
  scheme : string;
  blocks : int;
  ops : int;
  errors : int;
  warnings : int;
  resync : resync_summary option;
      (** present for Huffman-coded schemes with decodable blocks *)
}

val check_scheme :
  workload:string ->
  program:Tepic.Program.t ->
  ?tailored:Encoding.Tailored.spec ->
  ?resync_blocks:int ->
  Encoding.Scheme.t ->
  Diag.t list * scheme_summary
(** Full validation of one scheme.  [resync_blocks] (default 4) bounds
    the bit-flip sweep; every other check covers every block. *)

val check :
  workload:string ->
  program:Tepic.Program.t ->
  ?tailored:Encoding.Tailored.spec ->
  ?resync_blocks:int ->
  Encoding.Scheme.t list ->
  Diag.t list

val pass : (module Pass.S)
(** Registry entry ("image"): {!check} over a {!Pass.target}. *)
