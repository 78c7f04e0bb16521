(* Differential fuzzing campaign.  See the .mli for the contract; the
   engine's moving parts are:

   - a small pool of deterministic generated programs (per campaign seed),
     compiled once per domain and memoized in Domain.DLS — the Canonical
     decode LUTs inside a scheme are lazily-built mutable state and must
     never be shared across domains (same discipline as Experiments);
   - per-case RNG streams derived with [Faults.Rng.mix seed "case:<id>"],
     so a case's content is a pure function of (seed, id) and campaigns
     are deterministic at any jobs count;
   - a per-case exception barrier: any crash, including one in the case
     builder itself, becomes a [Case_crash] finding. *)

module Rng = Cccs.Faults.Rng
module Scheme = Encoding.Scheme
module Ad = Cccs_analysis.Abstract_decoder
module Dfa = Cccs_analysis.Decode_dfa
module Json = Cccs_obs.Json

type fault =
  | No_fault
  | Bit_flips of int list
  | Byte_sub of { byte : int; value : int }
  | Truncate of { bytes : int }

type case = {
  id : int;
  master : int;
  pool : int;
  scheme : string;
  protection : Scheme.protection;
  blocks : int list;
  fault : fault;
}

type finding_kind =
  | Decoder_exception of { block : int; exn : string }
  | Clean_mismatch of { block : int; detail : string }
  | Silent_corruption of { block : int; detail : string }
  | Oracle_disagreement of {
      oracle_a : string;
      oracle_b : string;
      block : int;
      detail : string;
    }
  | Book_conflict of { book : string; detail : string }
  | Wcet_violation of { scheme : string; detail : string }
  | Case_crash of { exn : string }

let kind_label = function
  | Decoder_exception _ -> "decoder-exception"
  | Clean_mismatch _ -> "clean-mismatch"
  | Silent_corruption _ -> "silent-corruption"
  | Oracle_disagreement _ -> "oracle-disagreement"
  | Book_conflict _ -> "book-conflict"
  | Wcet_violation _ -> "wcet-violation"
  | Case_crash _ -> "case-crash"

type finding = { case : case; kind : finding_kind; minimized : bool }

type tallies = {
  cases : int;
  clean_ok : int;
  roundtrip : int;
  detected : int;
  silent_unprotected : int;
  codeword_steps : int;
}

type spec = {
  seed : int;
  runs : int;
  jobs : int option;
  time_budget : float;
  fixtures_dir : string option;
}

let default_spec =
  { seed = 42; runs = 1000; jobs = None; time_budget = 0.; fixtures_dir = None }

type report = {
  spec : spec;
  tallies : tallies;
  findings : finding list;
  seconds : float;
}

(* ------------------------------------------------------------------ *)
(* Program pool and scheme construction, memoized per domain.          *)

let pool_size = 6

let pool_profile ~master k =
  {
    Workloads.Profile.name = Printf.sprintf "fuzz%d" k;
    seed = Rng.mix master (Printf.sprintf "pool:%d" k);
    static_ops = 60 + (45 * k);
    hot_fraction = 0.6;
    avg_block_ops = 3 + (k mod 4);
    loop_nest = k mod 3;
    inner_trip = 4;
    outer_trips = 2;
    dyn_ops_target = 1000;
    num_callees = k mod 3;
    cond_density = 0.3;
    taken_bias = 0.5;
    noise = 0.4;
    if_convert = 0.1;
    cold_bias = 0.05;
    fp_ratio = 0.05;
    mem_ratio = 0.25;
    imm_pool = 8;
    reg_pressure = 8;
  }

let scheme_names =
  [ "base"; "byte"; "full"; "dict"; "tailored" ]
  @ List.map fst Encoding.Stream_huffman.configs

let program_cache : (string, Tepic.Program.t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 7)

type scheme_entry = { sc : Scheme.t; strategy : (Ad.strategy, string) result }

let scheme_cache : (string, scheme_entry) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

let dfa_cache : (string, (Dfa.t, string) result) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

let trace_cache : (string, Emulator.Trace.t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 7)

(* WCET-vs-simulator verdict per (program, scheme, protection): any
   CCCS-E3xx is a soundness hole, memoized because the analysis + replay
   is far too heavy to rerun per clean case. *)
let wcet_cache : (string, finding_kind option) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

let program_of ~master pool =
  let tbl = Domain.DLS.get program_cache in
  let key = Printf.sprintf "%d:%d" master pool in
  match Hashtbl.find_opt tbl key with
  | Some p -> p
  | None ->
      let prof = pool_profile ~master pool in
      let p = (Cccs.Pipeline.compile_profile prof).Cccs.Pipeline.program in
      Hashtbl.add tbl key p;
      p

let build_base program = function
  | "base" -> (Encoding.Baseline.build program, None)
  | "byte" -> (Encoding.Byte_huffman.build program, None)
  | "full" -> (Encoding.Full_huffman.build program, None)
  | "dict" -> (Encoding.Dictionary.build program, None)
  | "tailored" ->
      let sc, spec = Encoding.Tailored.build_with_spec program in
      (sc, Some spec)
  | name -> (
      match List.assoc_opt name Encoding.Stream_huffman.configs with
      | Some config -> (Encoding.Stream_huffman.build ~config program, None)
      | None -> invalid_arg (Printf.sprintf "Fuzz: unknown scheme %S" name))

let scheme_of ~master ~pool ~scheme ~protection =
  let tbl = Domain.DLS.get scheme_cache in
  let key =
    Printf.sprintf "%d:%d:%s:%s" master pool scheme
      (Scheme.protection_name protection)
  in
  match Hashtbl.find_opt tbl key with
  | Some e -> e
  | None ->
      let base_key = Printf.sprintf "%d:%d:%s:none" master pool scheme in
      let base =
        match Hashtbl.find_opt tbl base_key with
        | Some e -> e
        | None ->
            let program = program_of ~master pool in
            let sc, tailored = build_base program scheme in
            (* The strategy only depends on name/books/program, all of
               which [protect] preserves, so one per base scheme. *)
            let strategy = Ad.strategy_of_scheme ?tailored ~program sc in
            let e = { sc; strategy } in
            Hashtbl.add tbl base_key e;
            e
      in
      if protection = Scheme.Unprotected then base
      else begin
        let e = { base with sc = Scheme.protect protection base.sc } in
        Hashtbl.add tbl key e;
        e
      end

let entry_of case =
  scheme_of ~master:case.master ~pool:case.pool ~scheme:case.scheme
    ~protection:case.protection

let trace_of ~master pool =
  let tbl = Domain.DLS.get trace_cache in
  let key = Printf.sprintf "%d:%d" master pool in
  match Hashtbl.find_opt tbl key with
  | Some t -> t
  | None ->
      let program = program_of ~master pool in
      let t =
        (Emulator.Exec.run ~max_blocks:50_000 program).Emulator.Exec.trace
      in
      Hashtbl.add tbl key t;
      t

(* The clean-case timing oracle: the static WCET bound must dominate a
   simulator replay of the pool program's own trace — any CCCS-E3xx error
   out of Timing_check (bound exceeded, always-hit missed, CFG/trace
   disagreement) is a soundness hole in the analysis or the scheme's
   image geometry. *)
let wcet_finding case entry =
  let tbl = Domain.DLS.get wcet_cache in
  let key =
    Printf.sprintf "%d:%d:%s:%s" case.master case.pool case.scheme
      (Scheme.protection_name case.protection)
  in
  match Hashtbl.find_opt tbl key with
  | Some f -> f
  | None ->
      let program = program_of ~master:case.master case.pool in
      let trace = trace_of ~master:case.master case.pool in
      let diags, _ =
        Cccs_analysis.Timing_check.analyze_scheme
          ~workload:(Printf.sprintf "fuzz%d" case.pool)
          ~program ~strategy:entry.strategy ~trace entry.sc
      in
      let f =
        match List.find_opt Cccs_analysis.Diag.is_error diags with
        | Some d ->
            Some
              (Wcet_violation
                 {
                   scheme = case.scheme;
                   detail = Cccs_analysis.Diag.to_string d;
                 })
        | None -> None
      in
      Hashtbl.add tbl key f;
      f

let dfa_of ~master ~pool ~scheme name book =
  let tbl = Domain.DLS.get dfa_cache in
  let key = Printf.sprintf "%d:%d:%s:%s" master pool scheme name in
  match Hashtbl.find_opt tbl key with
  | Some d -> d
  | None ->
      let d =
        match Dfa.of_canonical (Huffman.Codebook.canonical book) with
        | Ok d -> Ok d
        | Error c -> Error (Dfa.conflict_to_string c)
      in
      Hashtbl.add tbl key d;
      d

(* ------------------------------------------------------------------ *)
(* Case generation.                                                    *)

let draws rng n bound =
  let rec go n acc = if n = 0 then acc else go (n - 1) (Rng.int rng bound :: acc) in
  if bound <= 0 then [] else go n []

let case_of_id ~seed id =
  let master = seed in
  let rng = Rng.create (Rng.mix master (Printf.sprintf "case:%d" id)) in
  let pool = Rng.int rng pool_size in
  let scheme = List.nth scheme_names (Rng.int rng (List.length scheme_names)) in
  let protection =
    match Rng.int rng 4 with
    | 0 | 1 -> Scheme.Unprotected
    | 2 -> Scheme.Crc8
    | _ -> Scheme.Crc16
  in
  let entry = scheme_of ~master ~pool ~scheme ~protection in
  let program = program_of ~master pool in
  let nblocks = Tepic.Program.num_blocks program in
  let blocks = List.sort_uniq compare (draws rng 6 nblocks) in
  let img_bytes = String.length entry.sc.Scheme.image in
  let fault =
    let d = Rng.int rng 100 in
    if d < 25 || img_bytes = 0 then No_fault
    else if d < 65 then
      Bit_flips
        (List.sort_uniq compare (draws rng (1 + Rng.int rng 3) (img_bytes * 8)))
    else if d < 85 then
      Byte_sub { byte = Rng.int rng img_bytes; value = Rng.int rng 256 }
    else Truncate { bytes = Rng.int rng img_bytes }
  in
  { id; master; pool; scheme; protection; blocks; fault }

(* ------------------------------------------------------------------ *)
(* Oracles.                                                            *)

let apply_fault image = function
  | No_fault -> image
  | Bit_flips l -> Bits.flip_bits image l
  | Byte_sub { byte; value } ->
      if byte >= String.length image then image
      else
        String.mapi
          (fun i c -> if i = byte then Char.chr (value land 0xFF) else c)
          image
  | Truncate { bytes } ->
      if bytes >= String.length image then image else String.sub image 0 bytes

(* The CRC guard provably detects any error burst confined to the payload
   and no wider than the guard word (a CRC of width w catches every burst
   of length <= w).  Faults touching the length field or guard word, or
   spanning wider than the guard, carry no such guarantee — a wrong
   decode there is not (provably) silent corruption. *)
let guaranteed_detectable (sc : Scheme.t) i fault =
  let f = sc.Scheme.frame in
  if f.Scheme.guard_bits = 0 then false
  else
    let off = sc.Scheme.block_offset_bits.(i) in
    let p0 = off + f.Scheme.len_bits in
    let p1 = off + sc.Scheme.block_bits.(i) - f.Scheme.guard_bits in
    match fault with
    | Bit_flips (_ :: _ as l) ->
        let mn = List.fold_left min max_int l in
        let mx = List.fold_left max (-1) l in
        mn >= p0 && mx < p1 && mx - mn + 1 <= f.Scheme.guard_bits
    | Byte_sub { byte; _ } ->
        f.Scheme.guard_bits >= 8 && (8 * byte) >= p0 && (8 * byte) + 8 <= p1
    | _ -> false

let show_step = function
  | None -> "none"
  | Some (s, l) -> Printf.sprintf "sym=%d len=%d" s l

(* Step the three codeword decoders — table-driven [read_opt], bit-serial
   [read_serial_opt] and the DFA replay oracle — together over [image]
   bits [from, upto).  Returns (steps, first disagreement). *)
let codeword_walk book dfa image ~from ~upto ~budget =
  let r_lut = Bits.Reader.of_string image in
  let r_ser = Bits.Reader.of_string image in
  let len = Bits.Reader.length r_lut in
  let upto = min upto len in
  let steps = ref 0 in
  let disagree = ref None in
  let stop = ref (from < 0 || from >= len) in
  if not !stop then Bits.Reader.seek r_lut from;
  while (not !stop) && !disagree = None && !steps < budget do
    let pos = Bits.Reader.pos r_lut in
    if pos >= upto then stop := true
    else begin
      Bits.Reader.seek r_ser pos;
      let remaining = len - pos in
      let width = min 56 remaining in
      let dfa_out =
        match Dfa.run dfa ~width (Bits.Reader.peek_bits r_lut ~width) with
        | Dfa.Emits { symbol; length } when length <= remaining ->
            Some (symbol, length)
        | _ -> None
      in
      let lut =
        match Huffman.Codebook.read_opt book r_lut with
        | Some s -> Some (s, Bits.Reader.pos r_lut - pos)
        | None -> None
      in
      let ser =
        match Huffman.Codebook.read_serial_opt book r_ser with
        | Some s -> Some (s, Bits.Reader.pos r_ser - pos)
        | None -> None
      in
      incr steps;
      if lut <> ser then
        disagree :=
          Some
            ( "table",
              "serial",
              Printf.sprintf "at bit %d: table %s, serial %s" pos
                (show_step lut) (show_step ser) )
      else if lut <> dfa_out then
        disagree :=
          Some
            ( "table",
              "dfa",
              Printf.sprintf "at bit %d: table %s, dfa %s" pos (show_step lut)
                (show_step dfa_out) )
      else
        match lut with
        | None | Some (_, 0) -> stop := true
        | Some _ -> ()
    end
  done;
  (!steps, !disagree)

type eval = {
  finding : finding_kind option;
  clean_ok : int;
  roundtrip : int;
  detected : int;
  silent_unprotected : int;
  codeword_steps : int;
}

let empty_eval =
  {
    finding = None;
    clean_ok = 0;
    roundtrip = 0;
    detected = 0;
    silent_unprotected = 0;
    codeword_steps = 0;
  }

let eval_case case =
  let entry = entry_of case in
  let program = program_of ~master:case.master case.pool in
  let sc = entry.sc in
  let image = apply_fault sc.Scheme.image case.fault in
  let faulted = not (String.equal image sc.Scheme.image) in
  let finding = ref None in
  let detected = ref false and wrong = ref false and roundtrip = ref true in
  let abstract ref_ops i =
    match entry.strategy with
    | Error m -> Error (0, Ad.Malformed m)
    | Ok strategy ->
        let r = Bits.Reader.of_string image in
        Ad.decode_block strategy ~frame:sc.Scheme.frame r ~index:i
          ~start:sc.Scheme.block_offset_bits.(i)
          ~op_count:(List.length ref_ops)
  in
  let check_block i =
    if !finding = None then begin
      let ref_ops = Tepic.Program.block_ops (Tepic.Program.block program i) in
      match
        match Scheme.decode_block_checked ~image sc i with
        | r -> `R r
        | exception e -> `Exn (Printexc.to_string e)
      with
      | `Exn exn -> finding := Some (Decoder_exception { block = i; exn })
      | `R prod ->
          if not faulted then begin
            (match prod with
            | Ok ops when Tepic.Op.equal_list ops ref_ops -> ()
            | Ok _ ->
                finding :=
                  Some
                    (Clean_mismatch
                       {
                         block = i;
                         detail = "production decode disagrees with the program";
                       })
            | Error e ->
                finding :=
                  Some
                    (Clean_mismatch
                       {
                         block = i;
                         detail =
                           "production decode rejected a clean block: "
                           ^ Scheme.decode_error_to_string e;
                       }));
            if !finding = None then
              match abstract ref_ops i with
              | Ok b when Tepic.Op.equal_list b.Ad.ops ref_ops -> ()
              | Ok _ ->
                  finding :=
                    Some
                      (Clean_mismatch
                         {
                           block = i;
                           detail = "abstract decoder disagrees with the program";
                         })
              | Error (bit, e) ->
                  finding :=
                    Some
                      (Clean_mismatch
                         {
                           block = i;
                           detail =
                             Printf.sprintf
                               "abstract decoder rejected a clean block at bit \
                                %d: %s"
                               bit (Ad.error_to_string e);
                         })
          end
          else begin
            match prod with
            | Ok ops when Tepic.Op.equal_list ops ref_ops -> ()
            | Ok ops ->
                roundtrip := false;
                wrong := true;
                if guaranteed_detectable sc i case.fault then
                  finding :=
                    Some
                      (Silent_corruption
                         {
                           block = i;
                           detail =
                             Printf.sprintf
                               "%s guard passed a payload burst fault"
                               (Scheme.protection_name case.protection);
                         })
                else if List.length ops = List.length ref_ops then begin
                  (* Same bits, same op count: the independent decoder must
                     reach the same wrong ops. *)
                  match abstract ref_ops i with
                  | Ok b when not (Tepic.Op.equal_list b.Ad.ops ops) ->
                      finding :=
                        Some
                          (Oracle_disagreement
                             {
                               oracle_a = "production";
                               oracle_b = "abstract";
                               block = i;
                               detail =
                                 "same faulted bits decode to different ops";
                             })
                  | _ -> ()
                end
            | Error _ ->
                roundtrip := false;
                detected := true
          end
    end
  in
  List.iter check_block case.blocks;
  if (not faulted) && !finding = None then finding := wcet_finding case entry;
  (* Codeword-level three-way differential: over the first selected
     block's payload window, and over a pure random bitstring. *)
  let steps = ref 0 in
  (if !finding = None && sc.Scheme.books <> [] then begin
     let wrng = Rng.create (Rng.mix case.master (Printf.sprintf "walk:%d" case.id)) in
     let name, book =
       List.nth sc.Scheme.books (Rng.int wrng (List.length sc.Scheme.books))
     in
     match
       dfa_of ~master:case.master ~pool:case.pool ~scheme:case.scheme name book
     with
     | Error detail -> finding := Some (Book_conflict { book = name; detail })
     | Ok dfa ->
         let walk img ~from ~upto =
           if !finding = None then begin
             let n, d = codeword_walk book dfa img ~from ~upto ~budget:128 in
             steps := !steps + n;
             match d with
             | Some (oracle_a, oracle_b, detail) ->
                 finding :=
                   Some
                     (Oracle_disagreement
                        { oracle_a; oracle_b; block = -1; detail })
             | None -> ()
           end
         in
         (match case.blocks with
         | i :: _ when i < Array.length sc.Scheme.block_offset_bits ->
             let off = sc.Scheme.block_offset_bits.(i) in
             let f = sc.Scheme.frame in
             walk image
               ~from:(off + f.Scheme.len_bits)
               ~upto:(off + sc.Scheme.block_bits.(i) - f.Scheme.guard_bits)
         | _ -> ());
         let noise = String.init 24 (fun _ -> Char.chr (Rng.int wrng 256)) in
         walk noise ~from:0 ~upto:(8 * String.length noise)
   end);
  {
    finding = !finding;
    clean_ok = (if (not faulted) && !finding = None then 1 else 0);
    roundtrip = (if faulted && !roundtrip && !finding = None then 1 else 0);
    detected = (if !detected then 1 else 0);
    silent_unprotected =
      (if !wrong && case.protection = Scheme.Unprotected then 1 else 0);
    codeword_steps = !steps;
  }

(* The per-case exception barrier: a crash anywhere above becomes a
   finding, never a campaign abort. *)
let eval_case_protected case =
  try eval_case case
  with e ->
    { empty_eval with finding = Some (Case_crash { exn = Printexc.to_string e }) }

let run_case case = (eval_case_protected case).finding

(* ------------------------------------------------------------------ *)
(* Delta minimization.                                                 *)

let minimize case kind =
  let label = kind_label kind in
  let budget = ref 200 in
  let fails c =
    !budget > 0
    && begin
         decr budget;
         match run_case c with
         | Some k -> String.equal (kind_label k) label
         | None -> false
       end
  in
  (* 1. Shrink the block list to a fixpoint. *)
  let cur = ref case in
  let improved = ref true in
  while !improved do
    improved := false;
    let bl = !cur.blocks in
    if List.length bl > 1 then
      List.iter
        (fun b ->
          if not !improved then begin
            let c = { !cur with blocks = List.filter (fun x -> x <> b) bl } in
            if fails c then begin
              cur := c;
              improved := true
            end
          end)
        bl
  done;
  (* 2. Shrink the fault. *)
  (match !cur.fault with
  | Bit_flips l when List.length l > 1 ->
      let improved = ref true in
      while !improved do
        improved := false;
        match !cur.fault with
        | Bit_flips fl when List.length fl > 1 ->
            List.iter
              (fun k ->
                if not !improved then begin
                  let c =
                    { !cur with fault = Bit_flips (List.filter (fun x -> x <> k) fl) }
                  in
                  if fails c then begin
                    cur := c;
                    improved := true
                  end
                end)
              fl
        | _ -> ()
      done
  | Truncate { bytes } ->
      (* The largest still-failing prefix is the smallest change. *)
      let full = String.length (entry_of !cur).sc.Scheme.image in
      let lo = ref bytes and hi = ref full in
      while !hi - !lo > 1 && !budget > 0 do
        let mid = (!lo + !hi) / 2 in
        if fails { !cur with fault = Truncate { bytes = mid } } then lo := mid
        else hi := mid
      done;
      cur := { !cur with fault = Truncate { bytes = !lo } }
  | Byte_sub { byte; value } ->
      let img = (entry_of !cur).sc.Scheme.image in
      if byte < String.length img then begin
        let orig = Char.code img.[byte] in
        if Bits.popcount (orig lxor value) > 1 then begin
          let found = ref false in
          for bit = 0 to 7 do
            if not !found then begin
              let v = orig lxor (1 lsl bit) in
              if fails { !cur with fault = Byte_sub { byte; value = v } } then begin
                cur := { !cur with fault = Byte_sub { byte; value = v } };
                found := true
              end
            end
          done
        end
      end
  | _ -> ());
  !cur

(* ------------------------------------------------------------------ *)
(* Serialization.                                                      *)

let fault_to_json = function
  | No_fault -> Json.Obj [ ("kind", Json.Str "none") ]
  | Bit_flips l ->
      Json.Obj
        [ ("kind", Json.Str "bit-flips"); ("bits", Json.Arr (List.map Json.int l)) ]
  | Byte_sub { byte; value } ->
      Json.Obj
        [
          ("kind", Json.Str "byte-sub");
          ("byte", Json.int byte);
          ("value", Json.int value);
        ]
  | Truncate { bytes } ->
      Json.Obj [ ("kind", Json.Str "truncate"); ("bytes", Json.int bytes) ]

let case_to_json c =
  Json.Obj
    [
      ("id", Json.int c.id);
      ("master", Json.int c.master);
      ("pool", Json.int c.pool);
      ("scheme", Json.Str c.scheme);
      ("protection", Json.Str (Scheme.protection_name c.protection));
      ("blocks", Json.Arr (List.map Json.int c.blocks));
      ("fault", fault_to_json c.fault);
    ]

let ( let* ) = Result.bind

let jint = function Json.Num f -> Some (int_of_float f) | _ -> None
let jstr = function Json.Str s -> Some s | _ -> None

let field name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)

let jints name j =
  match Option.bind (Json.member name j) Json.to_list with
  | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)
  | Some l ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | x :: tl -> (
            match jint x with
            | Some v -> go (v :: acc) tl
            | None -> Error (Printf.sprintf "non-integer element in %S" name))
      in
      go [] l

let fault_of_json j =
  let* kind = field "kind" jstr j in
  match kind with
  | "none" -> Ok No_fault
  | "bit-flips" ->
      let* bits = jints "bits" j in
      Ok (Bit_flips bits)
  | "byte-sub" ->
      let* byte = field "byte" jint j in
      let* value = field "value" jint j in
      Ok (Byte_sub { byte; value })
  | "truncate" ->
      let* bytes = field "bytes" jint j in
      Ok (Truncate { bytes })
  | k -> Error (Printf.sprintf "unknown fault kind %S" k)

let case_of_json j =
  let* id = field "id" jint j in
  let* master = field "master" jint j in
  let* pool = field "pool" jint j in
  let* scheme = field "scheme" jstr j in
  let* prot = field "protection" jstr j in
  let* protection =
    match Scheme.protection_of_name prot with
    | Some p -> Ok p
    | None -> Error (Printf.sprintf "unknown protection %S" prot)
  in
  let* blocks = jints "blocks" j in
  let* fault_j =
    match Json.member "fault" j with
    | Some f -> Ok f
    | None -> Error "missing field \"fault\""
  in
  let* fault = fault_of_json fault_j in
  Ok { id; master; pool; scheme; protection; blocks; fault }

let kind_to_json k =
  let base = [ ("kind", Json.Str (kind_label k)) ] in
  Json.Obj
    (base
    @
    match k with
    | Decoder_exception { block; exn } ->
        [ ("block", Json.int block); ("exn", Json.Str exn) ]
    | Clean_mismatch { block; detail } ->
        [ ("block", Json.int block); ("detail", Json.Str detail) ]
    | Silent_corruption { block; detail } ->
        [ ("block", Json.int block); ("detail", Json.Str detail) ]
    | Oracle_disagreement { oracle_a; oracle_b; block; detail } ->
        [
          ("oracle_a", Json.Str oracle_a);
          ("oracle_b", Json.Str oracle_b);
          ("block", Json.int block);
          ("detail", Json.Str detail);
        ]
    | Book_conflict { book; detail } ->
        [ ("book", Json.Str book); ("detail", Json.Str detail) ]
    | Wcet_violation { scheme; detail } ->
        [ ("scheme", Json.Str scheme); ("detail", Json.Str detail) ]
    | Case_crash { exn } -> [ ("exn", Json.Str exn) ])

let finding_to_json f =
  Json.Obj
    [
      ("case", case_to_json f.case);
      ("finding", kind_to_json f.kind);
      ("minimized", Json.Bool f.minimized);
    ]

let tallies_to_json t =
  Json.Obj
    [
      ("cases", Json.int t.cases);
      ("clean_ok", Json.int t.clean_ok);
      ("roundtrip", Json.int t.roundtrip);
      ("detected", Json.int t.detected);
      ("silent_unprotected", Json.int t.silent_unprotected);
      ("codeword_steps", Json.int t.codeword_steps);
    ]

let report_to_json r =
  Json.Obj
    [
      ("schema", Json.Str "cccs-fuzz/1");
      ("ok", Json.Bool (r.findings = []));
      ("seed", Json.int r.spec.seed);
      ("runs", Json.int r.spec.runs);
      ( "jobs",
        Json.int (Cccs.Parallel.effective_jobs ?jobs:r.spec.jobs r.spec.runs) );
      ("time_budget", Json.Num r.spec.time_budget);
      ("tallies", tallies_to_json r.tallies);
      ("findings", Json.Arr (List.map finding_to_json r.findings));
      ("seconds", Json.Num r.seconds);
    ]

let fixture_to_json f =
  Json.Obj
    [
      ("schema", Json.Str "cccs-fuzz-fixture/1");
      ("expect", Json.Str (kind_label f.kind));
      ("case", case_to_json f.case);
      ("finding", kind_to_json f.kind);
    ]

(* FNV-1a over the case JSON — a stable content hash for filenames. *)
let hash_string s =
  let h = ref 0x811C9DC5 in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0x3FFFFFFF)
    s;
  !h

let write_fixture ~dir f =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let case_s = Json.to_string (case_to_json f.case) in
  let base = Printf.sprintf "fuzz_case_%d_%08x" f.case.id (hash_string case_s) in
  let path = Filename.concat dir (base ^ ".json") in
  Cccs_obs.Export.write_file path (Json.to_string (fixture_to_json f) ^ "\n");
  path

(* ------------------------------------------------------------------ *)
(* The campaign.                                                       *)

let add_eval t (e : eval) =
  {
    cases = t.cases + 1;
    clean_ok = t.clean_ok + e.clean_ok;
    roundtrip = t.roundtrip + e.roundtrip;
    detected = t.detected + e.detected;
    silent_unprotected = t.silent_unprotected + e.silent_unprotected;
    codeword_steps = t.codeword_steps + e.codeword_steps;
  }

let zero_tallies =
  {
    cases = 0;
    clean_ok = 0;
    roundtrip = 0;
    detected = 0;
    silent_unprotected = 0;
    codeword_steps = 0;
  }

let run spec =
  let t0 = Cccs_obs.Clock.now () in
  let deadline =
    if spec.time_budget > 0. then Some (t0 +. spec.time_budget) else None
  in
  let ids = List.init spec.runs (fun i -> i) in
  let results =
    Cccs.Parallel.map ?jobs:spec.jobs
      (fun id ->
        match deadline with
        | Some d when Cccs_obs.Clock.now () > d -> None
        | _ ->
            let case, ev =
              match case_of_id ~seed:spec.seed id with
              | case -> (case, eval_case_protected case)
              | exception e ->
                  ( {
                      id;
                      master = spec.seed;
                      pool = 0;
                      scheme = "base";
                      protection = Scheme.Unprotected;
                      blocks = [];
                      fault = No_fault;
                    },
                    {
                      empty_eval with
                      finding = Some (Case_crash { exn = Printexc.to_string e });
                    } )
            in
            Some (case, ev))
      ids
  in
  let tallies = ref zero_tallies in
  let findings = ref [] in
  List.iter
    (function
      | None -> ()
      | Some (case, ev) -> (
          tallies := add_eval !tallies ev;
          match ev.finding with
          | None -> ()
          | Some kind ->
              let mcase = minimize case kind in
              (* Refresh the kind on the minimized case — details (bit
                 positions, messages) may have moved while shrinking. *)
              let kind =
                match run_case mcase with Some k -> k | None -> kind
              in
              findings := { case = mcase; kind; minimized = true } :: !findings))
    results;
  let findings = List.rev !findings in
  (match spec.fixtures_dir with
  | Some dir -> List.iter (fun f -> ignore (write_fixture ~dir f)) findings
  | None -> ());
  {
    spec;
    tallies = !tallies;
    findings;
    seconds = Cccs_obs.Clock.now () -. t0;
  }
