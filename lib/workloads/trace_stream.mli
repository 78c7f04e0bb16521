(** Chunked binary block-trace format with bounded-memory streaming.

    The one on-disk trace format ([cccs trace] writes it).
    Production-volume traces (millions of block visits) need a format
    that can be written as the visits happen and replayed without ever
    holding more than one chunk in memory.  This module provides exactly
    that: a sequential {!writer} and a chunk-at-a-time reader whose
    every failure mode — truncated header, truncated chunk, corrupted
    length field, corrupted payload — surfaces as a typed {!error}, never
    an exception and never a silently short read.

    {2 Byte layout}

    All fixed-width integers are little-endian.

    {v
    header (40 bytes):
      0   magic        8 bytes  "CCCSTRC1"
      8   version      u32      1
      12  chunk_visits u32      writer's nominal visits per chunk
      16  visits       u64      total block visits in the file
      24  ops          u64      executed-op count (metadata, may be 0)
      32  mops         u64      executed-MOP count (metadata, may be 0)
    chunk (repeated until end of file):
      0   count        u32      visits in this chunk, 1 <= count
      4   nbytes       u32      payload length in bytes
      8   payload      nbytes   count LEB128 varints (7 bits per byte,
                                least-significant group first)
      8+n crc          u16      CRC-16/CCITT over the payload bytes
                                ({!Bits.Crc.crc16_poly}, zero init)
    v}

    Sanity bounds are part of the format: [count <= max_chunk_visits] and
    [count <= nbytes <= 10 * count] (a varint takes 1-10 bytes), so a
    corrupted length field is rejected before any allocation is sized by
    it.  The header's [visits] total is cross-checked against the sum of
    chunk counts at end of stream. *)

(** Hard upper bound on visits per chunk accepted by reader and writer. *)
val max_chunk_visits : int

type error =
  | Io_error of { path : string; message : string }
  | Truncated_header of { got_bytes : int }
      (** fewer than 40 header bytes *)
  | Bad_magic of { got : string }
  | Bad_version of { got : int }
  | Bad_chunk_length of { chunk : int; count : int; nbytes : int }
      (** a length field violates the format's sanity bounds *)
  | Truncated_chunk of { chunk : int; wanted_bytes : int; got_bytes : int }
  | Corrupt_chunk of { chunk : int; stored_crc : int; computed_crc : int }
  | Bad_varint of { chunk : int; index : int }
      (** a varint overruns the payload or exceeds 62 bits *)
  | Visit_count_mismatch of { header : int; read : int }
      (** the file ended cleanly but the chunk counts disagree with the
          header total *)

val error_to_string : error -> string

(** {1 Writing} *)

type writer

(** [create ?chunk_visits path] opens [path] for writing and emits a
    placeholder header ([chunk_visits] defaults to 65536 and is clamped to
    [\[1, max_chunk_visits\]]).  Raises [Sys_error] on I/O failure — the
    writer is for trusted producers; only the {e reader} must be total. *)
val create : ?chunk_visits:int -> string -> writer

(** [add w block] appends one visit.  Raises [Invalid_argument] on a
    negative block id. *)
val add : writer -> int -> unit

(** [record_ops w ~ops ~mops] accumulates executed op/MOP metadata for the
    header. *)
val record_ops : writer -> ops:int -> mops:int -> unit

(** [close w] flushes the final partial chunk, patches the header with the
    true totals and closes the file.  Idempotent. *)
val close : writer -> unit

(** [visits_written w] — visits added so far. *)
val visits_written : writer -> int

(** {1 Reading}

    All readers hold at most one chunk in memory (one reusable buffer of
    at most [10 * max_chunk_visits] bytes), so a million-block trace
    replays in bounded heap. *)

type header = { visits : int; ops : int; mops : int; chunk_visits : int }

(** [read_header path] validates magic, version and header length only. *)
val read_header : string -> (header, error) result

(** [fold path ~init ~f] streams every visit through [f] in file order. *)
val fold : string -> init:'a -> f:('a -> int -> 'a) -> ('a, error) result

(** [iter path ~f] — [fold] without an accumulator; returns the validated
    header on success. *)
val iter : string -> f:(int -> unit) -> (header, error) result

(** [with_blocks path ~f] hands [f] a push iterator over the file's visits
    and returns [f]'s result.  The iterator streams chunk by chunk; a
    format error aborts the iteration and surfaces as [Error] from
    [with_blocks] itself (exceptions raised by [f]'s callback propagate
    unchanged).  This is the bridge to push-based consumers such as
    [Fetch.Sim.run_iter], which cannot thread a [result] through their
    inner loop. *)
val with_blocks :
  string -> f:(((int -> unit) -> unit) -> 'a) -> ('a, error) result
