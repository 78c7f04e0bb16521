(* Certify — static decoder certification.

   Where Image_check replays the one image the pipeline happened to build,
   this pass proves properties of the decoder every image must go through,
   by exhaustive enumeration over the decode automaton (Decode_dfa):

   - E200/E201: each published codebook yields a well-formed DFA (prefix-
     free) and the DFA is total — every reachable state emits or rejects
     strictly within the declared maximum code length;
   - E202/E203: every root and overflow-sub-table slot of the two-level
     Huffman LUT agrees with that DFA, so the fast decode path and the
     published code are the same function on all inputs, not just the
     inputs a workload exercises;
   - E204: the scheme's declarative decode model (Scheme.code_source)
     resolves against its published books, and every built block fits the
     certified worst-case size bound the model implies;
   - W205: a codebook with no synchronizing sequence (e.g. a fixed-length
     code) leaves a desynchronized decoder desynchronized for the rest of
     an unframed block — the resync story W107 samples becomes a proof.

   The certificate record is what `cccs certify` serializes as
   cccs-certify/1; `cccs verify` reads this pass's errors into the
   certify column of its per-workload row. *)

type book_cert = {
  book : string;
  symbols : int;
  max_code_len : int;
  dfa_states : int;
  complete : bool;  (** every bit pattern decodes (no reject prefix) *)
  worst_bits : int;  (** certified worst-case bits per decoded symbol *)
  lut_root_checked : int;  (** root LUT slots proved against the DFA *)
  lut_sub_checked : int;  (** overflow sub-table slots proved *)
  recoverable : bool;
  resync_bits : int option;  (** proven bound under single-bit flips *)
  sync_word_bits : int option;  (** synchronizing-sequence length bound *)
}

type t = {
  scheme : string;
  books : book_cert list;
  worst_op_bits : int option;
      (** certified worst-case wire bits per decoded op, from the model *)
  worst_block_bits : int;  (** largest built block, observed *)
  worst_block_bound : int option;
      (** certified bound on that block (model present and resolved) *)
  blocks_checked : int;
  errors : int;
  warnings : int;
  ok : bool;  (** no CCCS-E2xx error *)
}

let slot_to_string = function
  | Huffman.Canonical.Table.Empty -> "empty"
  | Huffman.Canonical.Table.Sym { symbol; length } ->
      Printf.sprintf "symbol %#x (len %d)" symbol length
  | Huffman.Canonical.Table.Sub si -> Printf.sprintf "sub-table %d" si

let outcome_to_string = function
  | Decode_dfa.Emits { symbol; length } ->
      Printf.sprintf "emits symbol %#x (len %d)" symbol length
  | Decode_dfa.Rejects { at_bit } ->
      Printf.sprintf "rejects at bit %d" at_bit
  | Decode_dfa.Continues { state } ->
      Printf.sprintf "still mid-codeword (state %d)" state

(* ------------------------------------------------------------------ *)
(* Per-codebook certification.                                         *)

let certify_codes_dfa ~loc ~warn_sync ~book ~max_len codes =
  let fail code msg = [ Diag.make ~code ~loc msg ] in
  match Decode_dfa.of_codes ~max_len codes with
  | Error c ->
      ( fail "CCCS-E200"
          (Printf.sprintf "book %s: %s" book (Decode_dfa.conflict_to_string c)),
        None )
  | Ok dfa -> (
      match Decode_dfa.prove_total dfa with
      | Error v ->
          ( fail "CCCS-E201"
              (Printf.sprintf "book %s: state %d (depth %d): %s" book
                 v.Decode_dfa.state v.Decode_dfa.depth v.Decode_dfa.reason),
            None )
      | Ok tot ->
          let sync = Decode_dfa.certify_sync dfa in
          let warns =
            if warn_sync && sync.Decode_dfa.sync_word_bits = None then
              fail "CCCS-W205"
                (Printf.sprintf
                   "book %s: no bit sequence forces its %d decoder states \
                    back into lock-step"
                   book sync.Decode_dfa.live_states)
            else []
          in
          let cert =
            {
              book;
              symbols = List.length codes;
              max_code_len =
                List.fold_left (fun a (_, _, l) -> max a l) 0 codes;
              dfa_states = tot.Decode_dfa.states;
              complete = tot.Decode_dfa.complete;
              worst_bits = tot.Decode_dfa.worst_bits;
              lut_root_checked = 0;
              lut_sub_checked = 0;
              recoverable = sync.Decode_dfa.recoverable;
              resync_bits = sync.Decode_dfa.resync_bits;
              sync_word_bits = sync.Decode_dfa.sync_word_bits;
            }
          in
          (warns, Some (dfa, cert)))

let certify_codes ~workload ?scheme ?(warn_sync = true) ~book ~max_len codes =
  let loc = Diag.loc ?scheme workload in
  let diags, r = certify_codes_dfa ~loc ~warn_sync ~book ~max_len codes in
  (diags, Option.map snd r)

(* Exhaustive LUT equivalence: every root index, and for every overflow
   pointer every sub index, replayed through the DFA at full width. *)
let check_lut ~loc ~book c dfa =
  let module T = Huffman.Canonical.Table in
  let tb = Huffman.Canonical.table c in
  let rb = T.root_bits tb in
  let diags = ref [] and nroot = ref 0 and nsub = ref 0 in
  let mismatch code ~width pat slot oracle =
    diags :=
      Diag.make ~code ~loc
        (Printf.sprintf
           "book %s: LUT slot for %d-bit pattern %#x holds %s but the \
            decode automaton %s"
           book width pat (slot_to_string slot) (outcome_to_string oracle))
      :: !diags
  in
  for i = 0 to T.root_size tb - 1 do
    incr nroot;
    let oracle = Decode_dfa.run dfa ~width:rb i in
    match (T.root_slot tb i, oracle) with
    | T.Sym { symbol; length }, Decode_dfa.Emits { symbol = s; length = l }
      when symbol = s && length = l ->
        ()
    | T.Empty, Decode_dfa.Rejects _ -> ()
    | T.Sub si, Decode_dfa.Continues _ ->
        let w = T.sub_width tb si in
        for j = 0 to T.sub_size tb si - 1 do
          incr nsub;
          let pat = (i lsl w) lor j in
          let oracle = Decode_dfa.run dfa ~width:(rb + w) pat in
          match (T.sub_slot tb si j, oracle) with
          | ( T.Sym { symbol; length },
              Decode_dfa.Emits { symbol = s; length = l } )
            when symbol = s && length = l ->
              ()
          | T.Empty, Decode_dfa.Rejects _ -> ()
          | slot, _ -> mismatch "CCCS-E203" ~width:(rb + w) pat slot oracle
        done
    | slot, _ -> mismatch "CCCS-E202" ~width:rb i slot oracle
  done;
  (List.rev !diags, !nroot, !nsub)

let certify_book ~workload ?scheme ?(warn_sync = true) (name, cb) =
  let loc = Diag.loc ?scheme workload in
  let c = Huffman.Codebook.canonical cb in
  let codes = Huffman.Canonical.to_list c in
  let max_len = Huffman.Canonical.max_length c in
  match certify_codes_dfa ~loc ~warn_sync ~book:name ~max_len codes with
  | diags, None -> (diags, None)
  | diags, Some (dfa, cert) ->
      if not (Huffman.Canonical.lut_eligible c) then (diags, Some cert)
      else
        let lut_diags, nroot, nsub = check_lut ~loc ~book:name c dfa in
        ( diags @ lut_diags,
          Some { cert with lut_root_checked = nroot; lut_sub_checked = nsub }
        )

(* ------------------------------------------------------------------ *)
(* Per-scheme certification.                                           *)

(* The decode model's worst-case bits per op, summed over its code
   sources, and every book it names that the scheme does not publish (one
   entry per such source, in model order).  Any unpublished book, or no
   model at all, leaves no bound. *)
let resolve_model (sc : Encoding.Scheme.t) =
  List.fold_left
    (fun (acc, missing) src ->
      match src with
      | Encoding.Scheme.Fixed_bits { max_bits; _ } ->
          (Option.map (fun a -> a + max_bits) acc, missing)
      | Encoding.Scheme.Book_codewords { book; max_per_op } -> (
          match List.assoc_opt book sc.Encoding.Scheme.books with
          | Some cb ->
              let n =
                (Huffman.Codebook.stats cb).Huffman.Codebook.max_code_len
              in
              (Option.map (fun a -> a + (max_per_op * n)) acc, missing)
          | None -> (None, missing @ [ book ])))
    ((if sc.Encoding.Scheme.model = [] then None else Some 0), [])
    sc.Encoding.Scheme.model

let certify_scheme ~workload ?program (sc : Encoding.Scheme.t) =
  let scheme = sc.Encoding.Scheme.name in
  let loc = Diag.loc ~scheme workload in
  (* A framed (protected) block bounds any desynchronization at the frame
     anyway, so the no-synchronizing-sequence warning is noise there. *)
  let warn_sync =
    sc.Encoding.Scheme.frame.Encoding.Scheme.protection
    = Encoding.Scheme.Unprotected
  in
  let per_book =
    List.map (certify_book ~workload ~scheme ~warn_sync) sc.Encoding.Scheme.books
  in
  let book_diags = List.concat_map fst per_book in
  let certs = List.filter_map snd per_book in
  let worst_op_bits, unpublished = resolve_model sc in
  let model_diags =
    List.map
      (fun book ->
        Diag.make ~code:"CCCS-E204" ~loc
          (Printf.sprintf
             "decode model names codebook %s but the scheme publishes no \
              such book"
             book))
      unpublished
  in
  (* Every built block must fit the bound the model certifies. *)
  let bound_diags = ref [] in
  let blocks_checked = ref 0 in
  let worst_block_bound = ref None in
  (match (program, worst_op_bits) with
  | Some p, Some w ->
      let f = sc.Encoding.Scheme.frame in
      let overhead =
        f.Encoding.Scheme.len_bits + f.Encoding.Scheme.guard_bits
      in
      for i = 0 to Tepic.Program.num_blocks p - 1 do
        incr blocks_checked;
        let ops =
          Tepic.Program.block_num_ops (Tepic.Program.block p i)
        in
        let bound = (ops * w) + overhead in
        (match !worst_block_bound with
        | Some b when b >= bound -> ()
        | _ -> worst_block_bound := Some bound);
        let got = sc.Encoding.Scheme.block_bits.(i) in
        if got > bound then
          bound_diags :=
            Diag.make ~code:"CCCS-E204"
              ~loc:(Diag.loc ~scheme ~block:i workload)
              (Printf.sprintf
                 "block holds %d bits but the decode model certifies at \
                  most %d (%d ops, %d bits per op, %d framing)"
                 got bound ops w overhead)
            :: !bound_diags
      done
  | _ -> ());
  let diags =
    book_diags @ model_diags @ List.rev !bound_diags
  in
  let errors = List.length (List.filter Diag.is_error diags) in
  let warnings =
    List.length
      (List.filter (fun d -> d.Diag.severity = Diag.Warning) diags)
  in
  ( diags,
    {
      scheme;
      books = certs;
      worst_op_bits;
      worst_block_bits =
        Array.fold_left max 0 sc.Encoding.Scheme.block_bits;
      worst_block_bound = !worst_block_bound;
      blocks_checked = !blocks_checked;
      errors;
      warnings;
      ok = errors = 0;
    } )

let certify ~workload ?program schemes =
  List.map (certify_scheme ~workload ?program) schemes

let pass : (module Pass.S) =
  (module struct
    let name = "certify"

    let doc =
      "decoder certification: decode-DFA totality, Huffman LUT equivalence \
       and proven resync bounds by exhaustive state enumeration"

    let run (t : Pass.target) =
      List.concat_map
        (fun sc ->
          fst
            (certify_scheme ~workload:t.Pass.workload ?program:t.Pass.program
               sc))
        t.Pass.schemes
  end)
