(** Seeded differential fuzzing campaign over scheme × image × fault.

    Each case generates a random program ({!Workloads.Gen} via the
    compiler driver), picks a random scheme configuration — including the
    {!Encoding.Scheme.protect} framing variants — compresses it, optionally
    injects a fault into the ROM image, and then runs every available
    decoder as a differential oracle against the others and against
    [Scheme.decode_block_checked]'s error contract:

    - the production path ([decode_block_checked]: the scheme's one
      decoder, [transcode_payload] with two-level LUT Huffman, behind the
      frame checks), which must be {e total} — any exception is a
      finding;
    - the independent {!Cccs_analysis.Abstract_decoder} (decodes from the
      published ROM artifacts only);
    - at the codeword level, the table-driven [Canonical.read_opt], the
      bit-serial [read_serial_opt] and the {!Cccs_analysis.Decode_dfa}
      replay oracle, stepped together over block payloads and over pure
      random bitstrings.

    The contract: a fault-free decode must agree bit-exactly with the
    program and with every oracle; a faulted decode must round-trip,
    return a typed error, or be detected by the CRC guard — a protected
    frame delivering wrong ops under a guaranteed-detectable fault
    (a burst confined to the payload and no wider than the guard) is
    {e silent corruption}, a finding.

    Campaigns are deterministic: every case derives its own RNG stream
    from [Faults.Rng.mix seed "case:<id>"], independent of sharding, so
    the same seed yields the same findings at any [--jobs].  Each case
    runs inside its own exception barrier — a crash becomes a
    [Case_crash] finding, never a campaign abort.  Findings are
    delta-minimized (shrink the block list, then the fault) and can be
    emitted as JSON repro fixtures, which [dune runtest] replays from
    [test/fixtures/]. *)

(** A fault injected into the compressed ROM image. *)
type fault =
  | No_fault
  | Bit_flips of int list  (** absolute image bit positions, MSB-first *)
  | Byte_sub of { byte : int; value : int }
  | Truncate of { bytes : int }  (** keep only the first [bytes] bytes *)

(** One self-contained fuzz case.  [master] is the campaign seed the
    program pool derives from; everything else is concrete, so a case
    replays identically from a fixture. *)
type case = {
  id : int;
  master : int;
  pool : int;  (** program-pool index, in [0, pool_size) *)
  scheme : string;
  protection : Encoding.Scheme.protection;
  blocks : int list;  (** block indices exercised, sorted *)
  fault : fault;
}

val pool_size : int

type finding_kind =
  | Decoder_exception of { block : int; exn : string }
      (** the total decode path raised *)
  | Clean_mismatch of { block : int; detail : string }
      (** fault-free decode disagrees with the program or an oracle *)
  | Silent_corruption of { block : int; detail : string }
      (** protected frame delivered wrong ops under a
          guaranteed-detectable fault *)
  | Oracle_disagreement of {
      oracle_a : string;
      oracle_b : string;
      block : int;
      detail : string;
    }
  | Book_conflict of { book : string; detail : string }
      (** a published codebook failed DFA construction *)
  | Wcet_violation of { scheme : string; detail : string }
      (** clean case whose simulated fetch cycles escaped the static WCET
          bound, or whose timing analysis raised any CCCS-E3xx *)
  | Case_crash of { exn : string }  (** the case barrier caught a crash *)

val kind_label : finding_kind -> string

type finding = { case : case; kind : finding_kind; minimized : bool }

type tallies = {
  cases : int;  (** cases actually evaluated *)
  clean_ok : int;  (** fault-free cases, all oracles agreed *)
  roundtrip : int;  (** faulted cases whose decode still round-tripped *)
  detected : int;  (** faulted cases rejected with a typed error *)
  silent_unprotected : int;
      (** unprotected faulted cases that mis-decoded without detection —
          the expected failure mode the paper's framing exists to fix *)
  codeword_steps : int;  (** three-way codeword comparisons performed *)
}

type spec = {
  seed : int;
  runs : int;
  jobs : int option;
      (** the requested pool; [None]: {!Cccs.Parallel.default_jobs} *)
  time_budget : float;
      (** wall-clock seconds; 0 = unlimited.  A positive budget truncates
          the campaign (cases past the cutoff are skipped) — determinism
          is guaranteed by (seed, runs) alone, not under a budget. *)
  fixtures_dir : string option;
      (** where to write repro fixtures for findings; [None]: don't *)
}

val default_spec : spec

type report = {
  spec : spec;
  tallies : tallies;
  findings : finding list;  (** minimized, in case-id order *)
  seconds : float;
}

(** [run spec] — the campaign.  Shards cases over {!Cccs.Parallel.map};
    findings are delta-minimized and, when [fixtures_dir] is set, written
    out as repro fixtures. *)
val run : spec -> report

(** [run_case case] — replay one case (no minimization), inside the same
    exception barrier the campaign uses.  [None]: the case is clean. *)
val run_case : case -> finding_kind option

(** [minimize case kind] — shrink the block list to a fixpoint, then the
    fault (drop flips / grow truncation / reduce a byte substitution to a
    single bit), preserving the finding's {!kind_label}.  Replay budget is
    bounded; returns the smallest failing case found. *)
val minimize : case -> finding_kind -> case

(** {1 Serialization} *)

val fault_to_json : fault -> Cccs_obs.Json.t
val case_to_json : case -> Cccs_obs.Json.t
val case_of_json : Cccs_obs.Json.t -> (case, string) result
val finding_to_json : finding -> Cccs_obs.Json.t

(** [report_to_json r] — schema [cccs-fuzz/1].  Echoes [seed] and [runs];
    [jobs] is the pool that ran the cases,
    [Cccs.Parallel.effective_jobs ?jobs runs]; [ok] is [findings = []].
    [seconds] is the only nondeterministic field. *)
val report_to_json : report -> Cccs_obs.Json.t

(** [fixture_to_json f] — schema [cccs-fuzz-fixture/1]: the minimized case
    plus the expected replay outcome ([expect] = {!kind_label}, or "none"
    for a regression fixture of a fixed bug). *)
val fixture_to_json : finding -> Cccs_obs.Json.t

(** [write_fixture ~dir f] — write the JSON fixture ({!fixture_to_json})
    into [dir], creating it if missing; returns its path.  The filename
    derives from the case id and a content hash, so re-running a campaign
    overwrites rather than accumulates. *)
val write_fixture : dir:string -> finding -> string
