(** Fetch-side geometry and the paper's cycle-count assumptions (Table 1).

    The baseline banked ICache has two banks whose line equals the largest
    MOP (6 ops x 40 bits = 240 bits); the paper evaluates 16 KB 2-way
    caches, with the baseline rounded up to 20 KB so lines hold an integral
    number of 40-bit ops.  Penalties are cycles from starting a block fetch
    until its first MOP issues; subsequent MOPs stream one per cycle
    (§3.1). *)

(** Next-block predictor flavour.  The paper couples a 2-bit saturating
    counter with each ATB entry (§3.4) and names gshare as future work;
    both are available. *)
type predictor = Two_bit | Gshare of int  (** history bits, 2-14 *)

type t = {
  line_bits : int;  (** bank line size; also the memory line size *)
  cache_bytes : int;  (** total ICache capacity *)
  ways : int;
  l0_ops : int;  (** L0 decompression-buffer capacity, in ops *)
  atb_entries : int;
  atb_miss_penalty : int;  (** cycles to pull an ATT entry into the ATB *)
  bus_bits : int;  (** memory bus width, for bit-flip accounting *)
  predictor : predictor;
  prefetch_next : bool;
      (** §3.3: the ATB's predicted next PC "is enough to fetch blocks in
          pipelined fashion" — when set, the predicted next block's lines
          are pulled toward the cache in the shadow of the current block's
          streaming (bus traffic is charged; cycles are not; wrong guesses
          pollute). *)
}

(** 16 KB, 2-way, 240-bit lines, 32-op L0, 128-entry ATB, 32-bit bus. *)
val default : t

(** The paper's baseline cache: same, at 20 KB. *)
val default_base : t

(** Fetch-model flavour, selecting a Table 1 column. *)
type model = Base | Tailored | Compressed

(** [of_scheme name] — the model and cache that fetch the scheme named
    [name] in Figure 13: ["base"] runs as [Base] on {!default_base},
    ["tailored"] as [Tailored] on {!default}, and every other scheme as
    [Compressed] on {!default}.  The figures, the fault campaigns and
    the static timing analysis all take their model from here. *)
val of_scheme : string -> model * t

(** [penalty model ~predicted ~cache_hit ~buffer_hit ~lines] — Table 1,
    verbatim: cycles until the block's first MOP issues.  [lines] is the
    table's [n].  [buffer_hit] is meaningful only for [Compressed]. *)
val penalty :
  model -> predicted:bool -> cache_hit:bool -> buffer_hit:bool -> lines:int -> int

(** [lines_of_bits t bits] — memory lines covering a block of [bits]
    starting at a line-aligned fetch (the ATT's conservative count). *)
val lines_of_bits : t -> int -> int

val num_lines : t -> int
val num_sets : t -> int

(** [line_span t ~offset_bits ~size_bits] — inclusive memory-line range
    the extent [offset_bits, offset_bits + size_bits) occupies.  The
    single geometry rule of the fetch models and the static timing
    analysis (read-only; touches no state).  [Encoding.Att.build] repeats
    the formula, since lib/encoding cannot depend on lib/fetch; a test
    keeps the two equal. *)
val line_span : t -> offset_bits:int -> size_bits:int -> int * int
