(** The clock every duration is read from: CLOCK_MONOTONIC through
    Bechamel's allocation-free stub.  It counts wall time, where the
    processor clock sums CPU time over domains, and it never steps with
    the calendar, as the time of day can.  Ledger timestamps name a moment
    rather than a duration, so they stay calendar time. *)

(** [now ()] — seconds since an arbitrary fixed origin; only the
    difference of two readings means anything. *)
val now : unit -> float
