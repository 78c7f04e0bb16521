(* Chunk planning for parallel decode of one compressed image.

   A compressed instruction image is a sequence of byte-aligned segments
   (blocks), and the Address Translation Table gives each one its exact
   bit offset.  To decode the image with several workers, it is cut at a
   subset of segment boundaries into contiguous chunks; each worker seeks
   to its chunk's first offset, decodes the chunk on its own, and the
   per-chunk outputs are concatenated in order.  This module owns the
   pure arithmetic: how many chunks to make and where.

   A chunk is only worth a worker domain when its decode work dwarfs the
   spawn and join, so the planner takes a floor on chunk size.  The
   default floor [chunk_floor_bits] is one constant: 1 Mibit (128 KB) of
   compressed input.  On a 2-core x86-64 VM a bare Domain.spawn + join
   takes 0.12-0.23 ms (p10-p50 over 200 spawns), with a p90 of 2.5 ms on
   a shared host, while the transcoding decoders run at 8-25 MB/s
   (Huffman, tailored) up to 55-110 MB/s (dict, base) end to end: a
   1 Mibit chunk is 1.2 ms of work for the fastest scheme and 16 ms for
   the slowest.  Smaller floors lost: over the 132 rom-decode images
   (27-192 Kibit each), jobs=2 at a 16 Kibit floor split every image and
   took 128 ms against 90 ms at jobs=1.  At this floor no image of the
   SPEC-like suite splits; tests force splits with a zero floor. *)

type chunk = {
  id : int;  (* position in the plan, 0-based *)
  first : int;  (* first segment index *)
  count : int;  (* segments in this chunk, >= 1 *)
  start_bit : int;  (* bit offset of the chunk in the image *)
  bits : int;  (* total payload bits over the chunk's segments *)
}

let chunk_floor_bits = 1_048_576

(* [plan ~offsets ~sizes ~jobs ~min_bits] — cut [n] segments into at most
   [jobs] contiguous chunks of >= [min_bits] payload bits each (except
   that the plan always has >= 1 chunk, and the last chunk takes the
   remainder).  Segment [i] spans [offsets.(i), offsets.(i) + sizes.(i));
   chunk boundaries always coincide with segment boundaries.

   The cut rule targets an even split first — [target = total/jobs] — and
   raises it to [min_bits] when the floor demands bigger chunks, so
   the plan degrades smoothly: plenty of work => [jobs] balanced chunks;
   small image => fewer, bigger chunks; tiny image => one chunk (the
   caller then decodes in place, spawning nothing). *)
let plan ~offsets ~sizes ~jobs ~min_bits =
  let n = Array.length sizes in
  if n <> Array.length offsets then invalid_arg "Par_decode.plan: length";
  if jobs < 1 then invalid_arg "Par_decode.plan: jobs";
  if n = 0 then [||]
  else begin
    let total = Array.fold_left ( + ) 0 sizes in
    let target = max 1 (max min_bits ((total + jobs - 1) / jobs)) in
    let chunks = ref [] in
    let first = ref 0 and acc = ref 0 in
    for i = 0 to n - 1 do
      acc := !acc + sizes.(i);
      (* Cut after segment [i] once the chunk is full — unless it is the
         last segment (the remainder always joins the current chunk). *)
      if !acc >= target && i < n - 1 && List.length !chunks < jobs - 1 then begin
        chunks :=
          {
            id = List.length !chunks;
            first = !first;
            count = i - !first + 1;
            start_bit = offsets.(!first);
            bits = !acc;
          }
          :: !chunks;
        first := i + 1;
        acc := 0
      end
    done;
    chunks :=
      {
        id = List.length !chunks;
        first = !first;
        count = n - !first;
        start_bit = offsets.(!first);
        bits = !acc;
      }
      :: !chunks;
    Array.of_list (List.rev !chunks)
  end

(* [gather pieces] — concatenate per-chunk outputs in plan order.  Every
   chunk decodes whole byte-aligned segments, so each piece is a whole
   number of bytes and the gather is a byte blit (Writer.add_string on an
   aligned writer is a single Bytes.blit_string per piece). *)
let gather pieces =
  let w =
    Bits.Writer.create
      ~initial_bytes:
        (max 64 (List.fold_left (fun a s -> a + String.length s) 0 pieces))
      ()
  in
  List.iter (Bits.Writer.add_string w) pieces;
  Bits.Writer.contents w
