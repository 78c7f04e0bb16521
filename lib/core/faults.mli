(** Deterministic soft-error fault-injection campaigns.

    A campaign flips single bits, one trial at a time, over the three
    storage surfaces of the compressed-code system and classifies each
    trial with the checked decode path ({!Encoding.Scheme.decode_block_checked}):

    - {b ROM}: a flip in the stored image, present from power-on;
    - {b cache}: an upset in a resident ICache line during a trace replay,
      delivered through {!Fetch.Sim}'s recovery policy;
    - {b table}: a flip in a serialized Huffman decode table.

    Campaigns run against each scheme either unprotected or wrapped with
    {!Encoding.Scheme.protect}, so detection coverage and the compression
    cost of protection are measured side by side.  All randomness comes
    from {!Rng}, a fixed xorshift64 generator, so a (bench, seed, flips)
    triple reproduces exactly on any OCaml release. *)

(** Deterministic xorshift64 stream — stable across platforms and OCaml
    versions, unlike stdlib [Random]. *)
module Rng : sig
  type t

  (** [create seed] — seed 0 is mapped to a fixed nonzero constant:
      xorshift64 has fixed point 0, so an all-zero state would emit an
      all-zero stream forever. *)
  val create : int -> t

  (** [int t bound] — uniform-ish draw in [\[0, bound)].  Raises
      [Invalid_argument] when [bound <= 0]. *)
  val int : t -> int -> int

  (** [mix base label] — derive a decorrelated, reproducible seed for
      [label] (a scheme name, a fuzz-case id, ...) from campaign seed
      [base].  Never returns 0, so no two labels can collapse onto the
      stream that [create 0]'s zero-guard produces. *)
  val mix : int -> string -> int
end

type counts = {
  injected : int;  (** trials that landed in modelled storage *)
  detected : int;  (** rejected by the checked decoder / guard word *)
  corrected : int;  (** cache surface only: healed by ROM refetch *)
  silent : int;  (** wrong decode delivered without detection *)
  benign : int;  (** provably no effect (padding bits, identical decode) *)
  machine_checks : int;  (** recoveries abandoned after max retries *)
  recovery_cycles : int;  (** cycles spent in the recovery loop *)
}

(** [coverage c] — detected / (detected + silent); 1.0 when nothing was
    exposed. *)
val coverage : counts -> float

type scheme_report = {
  scheme : string;
  protection : Encoding.Scheme.protection;
  ratio : float;  (** compression ratio vs the unprotected baseline bits *)
  protection_overhead : float;
      (** relative code growth from the protected framing (0 when
          unprotected) *)
  rom : counts;
  table : counts;
  cache : counts;
  clean_cycles : int;  (** fault-free simulated cycles *)
  faulty_cycles : int;  (** cycles with the campaign active *)
}

type spec = {
  bench : string;
  seed : int;
  flips : int;  (** trials per surface per scheme *)
  retries : int;  (** recovery attempts before a machine check *)
  protection : Encoding.Scheme.protection;
}

type t = { spec : spec; rows : scheme_report list }

(** [run ?obs ?jobs spec] — campaign over base, byte, stream, stream_1,
    full and tailored.  Raises [Failure] on an unknown bench name.

    The per-scheme campaigns run on a {!Parallel} pool ([jobs] defaults to
    [Parallel.default_jobs ()]); every scheme has its own decorrelated RNG
    stream and derives its inputs inside its worker domain, so the report
    is identical at any job count.  Passing [obs] forces the rows
    sequential — a shared sink cannot accept concurrent emitters.

    [obs] receives one wall-clock span per scheme campaign plus the
    per-trial injection/verdict stream: [Fault_inject] / [Fault_detect] /
    [Fault_silent] / [Fault_benign] events tagged with the surface ("rom",
    "table") and, through {!Fetch.Sim}, the full recovery episodes of the
    cache surface. *)
val run : ?obs:Cccs_obs.Sink.t -> ?jobs:int -> spec -> t

(** [silent_total row] — silent corruptions summed over all three
    surfaces (the CI gate checks this is 0 in protected mode). *)
val silent_total : scheme_report -> int
