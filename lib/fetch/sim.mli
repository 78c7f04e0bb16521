(** The cache study's fetch simulators (paper §3-§5, Figure 13-14).

    Replays a block-granular execution trace against one of four fetch
    organizations and accounts cycles with the paper's Table 1:

    - {b Ideal}: perfect cache, perfect prediction — one MOP per cycle,
      always;
    - {b Base}: uncompressed 40-bit code in the banked ICache (20 KB);
    - {b Tailored}: tailored-ISA code in the banked ICache, extra miss-path
      stage (16 KB);
    - {b Compressed}: Huffman-compressed code cached compressed, L0
      decompression buffer, decompressor on the hit path (16 KB).

    Every model fetches blocks atomically (restricted placement), predicts
    the next block with the ATB-resident 2-bit/last-target predictor, and
    streams one MOP per cycle after the Table 1 initiation penalty.

    The simulator can additionally run a soft-error campaign (a
    {!fault_plan}): scheduled single-bit upsets land in resident cache
    lines, a possibly-corrupt ROM backs every refill, and each delivery of
    a dirty block runs the scheme's checked decoder.  A detected corruption
    triggers the recovery policy — invalidate the block's lines, refetch
    from ROM at the full miss penalty, retry up to [max_retries] times,
    then raise a machine check. *)

type result = {
  model : string;
  cycles : int;
  ops_delivered : int;
  mops_delivered : int;
  block_visits : int;
  ipc : float;  (** ops delivered per cycle — the paper's Figure 13 metric *)
  l1_hits : int;
  l1_misses : int;
  l0_hits : int;  (** compressed model only; 0 otherwise *)
  l0_misses : int;
  mispredicts : int;
  atb_misses : int;
  lines_fetched : int;
  bus_flips : int;  (** Figure 14 metric *)
  bus_beats : int;
  faults_injected : int;  (** upsets that landed in a resident line *)
  faults_detected : int;  (** deliveries the checked decoder rejected *)
  faults_corrected : int;  (** detections healed by a ROM refetch *)
  silent_corruptions : int;  (** wrong MOPs delivered without detection *)
  machine_checks : int;  (** recoveries abandoned after [max_retries] *)
  recovery_cycles : int;  (** cycles spent inside the recovery loop *)
}

(** A deterministic soft-error campaign for one [run].

    [line_events] is sorted by visit index; event [(v, bit)] flips absolute
    image bit [bit] at the start of visit [v], provided the line holding it
    is resident (upsets aimed at empty frames are dropped — see
    [faults_injected]).  [rom_image] backs refills and recovery refetches;
    pass the scheme's own image for a cache-only campaign, or a pre-flipped
    copy to model ROM cell faults.  [decode_check] must be total (e.g.
    [Encoding.Scheme.decode_block_checked] partially applied) and
    [reference] gives the golden MOPs used to classify silent
    corruptions.  Both must be pure: a run decodes each block under each
    distinct set of upsets once and reuses that outcome for every later
    delivery and refetch. *)
type fault_plan = {
  rom_image : string;
  line_events : (int * int) array;
  decode_check :
    string ->
    int ->
    (Tepic.Op.t list, Encoding.Scheme.decode_error) Stdlib.result;
  reference : int -> Tepic.Op.t list;
  max_retries : int;
}

(** [run ?faults ?obs ~model ~cfg ~scheme ~att trace] — replay [trace].
    [scheme] must be the layout the model caches ([Baseline] image for
    [Base], tailored image for [Tailored], a Huffman image for
    [Compressed]); [att] must be built from the same scheme with [cfg]'s
    line size.

    [obs], when given, receives a cycle-stamped {!Cccs_obs.Event.Fetch}
    stream: L1 hit/miss, L0 fill/hit, ATB miss, mispredict, decode stall,
    per-line bus beats, block delivery, and the fault
    inject/detect/recover/machine-check episodes of a campaign.  The stream
    is deterministic (two identical runs emit byte-identical lines) and
    purely additive: results are bit-identical with and without a sink, and
    an uninstrumented run allocates no event values. *)
val run :
  ?faults:fault_plan ->
  ?obs:Cccs_obs.Sink.t ->
  model:Config.model ->
  cfg:Config.t ->
  scheme:Encoding.Scheme.t ->
  att:Encoding.Att.t ->
  Emulator.Trace.t ->
  result

(** [run_ideal ?obs ~att trace] — the perfect-fetch upper bound.  [obs]
    receives one [Deliver] event per block visit. *)
val run_ideal :
  ?obs:Cccs_obs.Sink.t -> att:Encoding.Att.t -> Emulator.Trace.t -> result

(** [run_iter] is [run] generalized over a push iterator: [iter_blocks f]
    must call [f] once per block visit, in trace order.  This is how
    million-visit traces stream through the simulator in bounded memory —
    pair with [Workloads.Trace_stream.with_blocks], which replays a
    chunked on-disk trace without ever materializing it ([run trace] is
    literally [run_iter (fun f -> Emulator.Trace.iter f trace)]).
    [block_visits] in the result counts the calls the iterator actually
    made. *)
val run_iter :
  ?faults:fault_plan ->
  ?obs:Cccs_obs.Sink.t ->
  model:Config.model ->
  cfg:Config.t ->
  scheme:Encoding.Scheme.t ->
  att:Encoding.Att.t ->
  ((int -> unit) -> unit) ->
  result

(** [model_name m] — the [model] field of [m]'s results: ["base"],
    ["tailored"] or ["compressed"]. *)
val model_name : Config.model -> string

(** A result with every count at 0 and an empty [model]: the fetch
    models that count only some fields ({!Ablation}, {!Superblock},
    [run_ideal]) write [{ zero with ... }]. *)
val zero : result

(** [ipc ~ops ~cycles] — ops per cycle, 0 for an empty run. *)
val ipc : ops:int -> cycles:int -> float

val pp : Format.formatter -> result -> unit

(** Full-record CSV row for [result] — the single machine-readable path
    shared by the figure exports and fault campaigns ([cccs export]). *)
val csv_header : string

val csv_row : result -> string
