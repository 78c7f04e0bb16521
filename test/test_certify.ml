(* Decoder-certification tests (Decode_dfa / Certify).

   Positive path: every scheme of a real compiled kernel — including the
   protected variants — certifies with zero errors, LUT slots proved
   exhaustively.  Negative paths: a non-prefix-free code list (E200), a
   deliberately corrupted LUT root/sub slot (E202/E203), a model naming an
   unpublished book and a model too small for the built blocks (E204),
   and a fixed-length code with no synchronizing sequence (W205).  Plus
   the Diag.registry invariants and the shared errors-fail/warnings-pass
   exit contract. *)

module A = Cccs_analysis
module Scheme = Encoding.Scheme
module D = A.Decode_dfa

let codes diags = List.map (fun (d : A.Diag.t) -> d.A.Diag.code) diags

let has code diags =
  Alcotest.(check bool)
    (code ^ " fired") true
    (List.mem code (codes diags))

let has_not code diags =
  Alcotest.(check bool)
    (code ^ " absent") false
    (List.mem code (codes diags))

let no_errors what diags =
  let errs = List.filter A.Diag.is_error diags in
  Alcotest.(check (list string)) (what ^ ": no errors") [] (codes errs)

let compiled =
  lazy (Cccs.Pipeline.compile (Workloads.Kernels.fir ~taps:4 ~samples:8))

let program () = (Lazy.force compiled).Cccs.Pipeline.program

let certify sc =
  fst (A.Certify.certify_scheme ~workload:"t" ~program:(program ()) sc)

(* ---------------------------------------------------------------- *)
(* Decode_dfa unit tests                                             *)
(* ---------------------------------------------------------------- *)

(* {0 -> "0", 1 -> "10", 2 -> "11"}: complete, variable-length. *)
let tiny = [ (0, 0b0, 1); (1, 0b10, 2); (2, 0b11, 2) ]

let build codes =
  match D.of_codes ~max_len:4 codes with
  | Ok t -> t
  | Error c -> Alcotest.failf "of_codes: %s" (D.conflict_to_string c)

let test_dfa_totality () =
  let t = build tiny in
  match D.prove_total t with
  | Error v -> Alcotest.failf "totality: %s" v.D.reason
  | Ok tot ->
      Alcotest.(check int) "worst bits" 2 tot.D.worst_bits;
      Alcotest.(check bool) "complete" true tot.D.complete;
      Alcotest.(check int) "no rejects" 0 tot.D.reject_prefixes

let test_dfa_run () =
  let t = build tiny in
  (match D.run t ~width:2 0b01 with
  | D.Emits { symbol = 0; length = 1 } -> ()
  | _ -> Alcotest.fail "pattern 01 must emit symbol 0 after 1 bit");
  (match D.run t ~width:2 0b10 with
  | D.Emits { symbol = 1; length = 2 } -> ()
  | _ -> Alcotest.fail "pattern 10 must emit symbol 1");
  (match D.run t ~width:1 0b1 with
  | D.Continues _ -> ()
  | _ -> Alcotest.fail "pattern 1 is mid-codeword");
  (* Incomplete code: the missing edge rejects at a bounded position. *)
  let t = build [ (0, 0b0, 1) ] in
  match D.run t ~width:1 0b1 with
  | D.Rejects { at_bit = 1 } -> ()
  | _ -> Alcotest.fail "missing edge must reject at bit 1"

let test_dfa_conflicts () =
  (match D.of_codes ~max_len:4 [ (0, 0b0, 1); (1, 0b01, 2) ] with
  | Error (D.Prefix { shorter = 0; longer = 1 }) -> ()
  | _ -> Alcotest.fail "prefix conflict not detected");
  (match D.of_codes ~max_len:4 [ (0, 0b1, 1); (1, 0b1, 1) ] with
  | Error (D.Duplicate _) -> ()
  | _ -> Alcotest.fail "duplicate codeword not detected");
  match D.of_codes ~max_len:4 [ (0, 0, 0) ] with
  | Error (D.Bad_length _) -> ()
  | _ -> Alcotest.fail "zero-length codeword not detected"

let test_dfa_sync () =
  (* Variable-length complete: every state pair merges within a bit. *)
  let t = build tiny in
  let s = D.certify_sync t in
  Alcotest.(check int) "live states" 2 s.D.live_states;
  Alcotest.(check bool) "recoverable" true s.D.recoverable;
  Alcotest.(check bool)
    "synchronizing sequence exists" true
    (s.D.sync_word_bits <> None);
  (* Fixed-length 2-bit code: a desynchronized decoder keeps a one-bit
     phase offset forever — provably non-synchronizing. *)
  let t = build [ (0, 0, 2); (1, 1, 2); (2, 2, 2); (3, 3, 2) ] in
  let s = D.certify_sync t in
  Alcotest.(check bool)
    "fixed-length code has no synchronizing sequence" true
    (s.D.sync_word_bits = None)

(* ---------------------------------------------------------------- *)
(* certify_sync against the reference (test/sync_reference.ml)       *)
(* ---------------------------------------------------------------- *)

(* A random prefix code over lengths 1-8: a binary tree split at random
   leaves until it has 2-16 of them, which is a complete code; half the
   time a random subset of leaves is then dropped (keeping at least one),
   which makes it incomplete.  Symbols and list order are shuffled. *)
let gen_prefix_code st =
  let target = 2 + Random.State.int st 15 in
  let rec grow leaves =
    let splittable = List.filter (fun (_, l) -> l < 8) leaves in
    if List.length leaves >= target || splittable = [] then leaves
    else
      let ((c, l) as x) =
        List.nth splittable (Random.State.int st (List.length splittable))
      in
      grow ((2 * c, l + 1) :: ((2 * c) + 1, l + 1)
            :: List.filter (( <> ) x) leaves)
  in
  let leaves = grow [ (0, 0) ] in
  let leaves =
    if Random.State.bool st then leaves
    else
      match List.filter (fun _ -> Random.State.int st 3 > 0) leaves with
      | [] -> [ List.hd leaves ]
      | kept -> kept
  in
  let shuffled =
    List.map snd
      (List.sort compare
         (List.map (fun x -> (Random.State.bits st, x)) leaves))
  in
  List.mapi (fun sym (code, len) -> (sym, code, len)) shuffled

let print_code codes =
  String.concat " "
    (List.map (fun (s, c, l) -> Printf.sprintf "%d:%d/%d" s c l) codes)

let arb_prefix_code = QCheck.make ~print:print_code gen_prefix_code

let sync_to_string (s : D.sync) =
  let opt = function None -> "none" | Some n -> string_of_int n in
  Printf.sprintf
    "live %d, pairs %d, recoverable %b, resync %s, sync word %s"
    s.D.live_states s.D.pairs_reachable s.D.recoverable (opt s.D.resync_bits)
    (opt s.D.sync_word_bits)

let sync_of_codes ~max_len codes =
  match (D.of_codes ~max_len codes, Sync_reference.of_codes ~max_len codes) with
  | Ok t, Ok r -> (D.certify_sync t, Sync_reference.certify_sync r)
  | _ -> Alcotest.failf "not a prefix code: %s" (print_code codes)

(* The exact [(live' - 1) * max shortest merge] bound by brute force: a
   forward BFS over the pair graph from every unordered state pair, with
   a shared Error state when some live state rejects. *)
let brute_sync_word_bits ~max_len codes =
  let t =
    match Sync_reference.of_codes ~max_len codes with
    | Ok t -> t
    | Error _ -> Alcotest.fail "not a prefix code"
  in
  let live = Array.make t.Sync_reference.nstates (-1) and n = ref 0 in
  Array.iteri
    (fun s e ->
      if e < 0 then begin
        live.(s) <- !n;
        incr n
      end)
    t.Sync_reference.emit;
  let nlive = !n in
  let back = Array.make nlive 0 in
  Array.iteri (fun s l -> if l >= 0 then back.(l) <- s) live;
  let step s b =
    if s = nlive then nlive
    else
      match Sync_reference.step t back.(s) b with
      | None -> nlive
      | Some x -> live.(x)
  in
  let has_reject = ref false in
  for s = 0 to nlive - 1 do
    if step s 0 = nlive || step s 1 = nlive then has_reject := true
  done;
  let n' = if !has_reject then nlive + 1 else nlive in
  let shortest a c =
    let seen = Hashtbl.create 64 in
    let rec level d frontier =
      if frontier = [] then None
      else
        let next =
          List.concat_map
            (fun (x, y) -> [ (step x 0, step y 0); (step x 1, step y 1) ])
            frontier
        in
        if List.exists (fun (x, y) -> x = y) next then Some d
        else
          let fresh =
            List.filter
              (fun p ->
                if Hashtbl.mem seen p then false
                else (
                  Hashtbl.add seen p ();
                  true))
              next
          in
          level (d + 1) fresh
    in
    Hashtbl.add seen (a, c) ();
    level 1 [ (a, c) ]
  in
  if nlive <= 1 then Some 0
  else
    let worst = ref (Some 0) in
    for a = 0 to n' - 1 do
      for c = a + 1 to n' - 1 do
        match (!worst, shortest a c) with
        | Some w, Some d -> worst := Some (max w d)
        | _ -> worst := None
      done
    done;
    Option.map (fun d -> (n' - 1) * d) !worst

(* One fixed stream of random codes shared by the three properties below,
   so they judge the same books. *)
let prop_over_codes name check =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0x5eed |])
    (QCheck.Test.make ~name ~count:1000 arb_prefix_code check)

let prop_sync_matches_reference =
  prop_over_codes "sync: four fields = reference" (fun codes ->
      let got, want = sync_of_codes ~max_len:8 codes in
      if
        got.D.live_states = want.D.live_states
        && got.D.pairs_reachable = want.D.pairs_reachable
        && got.D.recoverable = want.D.recoverable
        && got.D.resync_bits = want.D.resync_bits
      then true
      else
        QCheck.Test.fail_reportf "got %s, reference %s" (sync_to_string got)
          (sync_to_string want))

let prop_sync_word_at_most_reference =
  prop_over_codes "sync word <= reference" (fun codes ->
      let got, want = sync_of_codes ~max_len:8 codes in
      match (got.D.sync_word_bits, want.D.sync_word_bits) with
      | None, None -> true
      | Some g, Some w when g <= w -> true
      | _ ->
          QCheck.Test.fail_reportf "got %s, reference %s" (sync_to_string got)
            (sync_to_string want))

let prop_sync_word_exact =
  prop_over_codes "sync word = brute-force bound" (fun codes ->
      let got, _ = sync_of_codes ~max_len:8 codes in
      got.D.live_states > 16
      ||
      let exact = brute_sync_word_bits ~max_len:8 codes in
      got.D.sync_word_bits = exact
      || QCheck.Test.fail_reportf "got %s, brute force %s"
           (sync_to_string got)
           (match exact with None -> "none" | Some n -> string_of_int n))

(* {111, 01, 10, 00}: incomplete, so its four live states share an Error
   state.  The shortest merge of its worst pair takes 6 bits, but the
   reference's in-place sweep settled that pair through a neighbour it
   had set earlier in the same sweep, by a 7-bit path: 4 x 7 = 28 where
   the exact bound is 4 x 6 = 24. *)
let test_sync_word_exact_literal () =
  let codes = [ (0, 0b111, 3); (1, 0b01, 2); (2, 0b10, 2); (3, 0b00, 2) ] in
  let got, want = sync_of_codes ~max_len:3 codes in
  Alcotest.(check (option int)) "reference over-reports" (Some 28)
    want.D.sync_word_bits;
  Alcotest.(check (option int)) "brute force" (Some 24)
    (brute_sync_word_bits ~max_len:3 codes);
  Alcotest.(check (option int)) "exact bound" (Some 24) got.D.sync_word_bits

(* Every book of every scheme the sweep certifies, on fir and compress:
   all five fields equal the reference's. *)
let test_sync_real_books () =
  List.iter
    (fun name ->
      let r =
        match Workloads.Suite.find name with
        | Some e -> Cccs.Workload_run.load e
        | None -> Alcotest.failf "workload %s missing" name
      in
      List.iter
        (fun (scheme, sc) ->
          List.iter
            (fun (book, cb) ->
              let c = Huffman.Codebook.canonical cb in
              let got, want =
                sync_of_codes ~max_len:(Huffman.Canonical.max_length c)
                  (Huffman.Canonical.to_list c)
              in
              Alcotest.(check string)
                (Printf.sprintf "%s %s/%s" name scheme book)
                (sync_to_string want) (sync_to_string got))
            sc.Scheme.books)
        (Cccs.Experiments.every_scheme (Cccs.Experiments.schemes_of r)))
    [ "fir"; "compress" ]

(* ---------------------------------------------------------------- *)
(* Certification: positive path                                      *)
(* ---------------------------------------------------------------- *)

let test_certify_clean_all () =
  let prog = program () in
  let t_scheme, _ = Encoding.Tailored.build_with_spec prog in
  List.iter
    (fun (what, sc) ->
      let diags, cert = A.Certify.certify_scheme ~workload:"t" ~program:prog sc in
      no_errors what diags;
      Alcotest.(check bool) (what ^ " certified") true cert.A.Certify.ok)
    [
      ("base", Encoding.Baseline.build prog);
      ("byte", Encoding.Byte_huffman.build prog);
      ("stream", Encoding.Stream_huffman.build prog);
      ("full", Encoding.Full_huffman.build prog);
      ("tailored", t_scheme);
      ("dict", Encoding.Dictionary.build prog);
    ]

let test_certify_clean_protected () =
  let prog = program () in
  let sc = Scheme.protect Scheme.Crc8 (Encoding.Byte_huffman.build prog) in
  let diags, cert = A.Certify.certify_scheme ~workload:"t" ~program:prog sc in
  no_errors "byte+crc8" diags;
  (* Framed blocks bound desynchronization; W205 is unframed-only. *)
  has_not "CCCS-W205" diags;
  Alcotest.(check bool) "certified" true cert.A.Certify.ok

let test_certify_proves_luts () =
  let prog = program () in
  let _, cert =
    A.Certify.certify_scheme ~workload:"t" ~program:prog
      (Encoding.Byte_huffman.build prog)
  in
  match cert.A.Certify.books with
  | [ b ] ->
      Alcotest.(check bool)
        "root slots proved" true
        (b.A.Certify.lut_root_checked > 0);
      Alcotest.(check bool) "complete" true b.A.Certify.complete
  | bs -> Alcotest.failf "byte scheme publishes %d books" (List.length bs)

(* ---------------------------------------------------------------- *)
(* Certification: negative paths                                     *)
(* ---------------------------------------------------------------- *)

let test_e200_not_prefix_free () =
  let diags, cert =
    A.Certify.certify_codes ~workload:"t" ~book:"bad" ~max_len:4
      [ (0, 0b0, 1); (1, 0b01, 2) ]
  in
  has "CCCS-E200" diags;
  Alcotest.(check bool) "no certificate" true (cert = None)

let test_w205_fixed_length () =
  let fixed = [ (0, 0, 2); (1, 1, 2); (2, 2, 2); (3, 3, 2) ] in
  let diags, cert =
    A.Certify.certify_codes ~workload:"t" ~book:"fixed" ~max_len:2 fixed
  in
  has "CCCS-W205" diags;
  no_errors "W205 is a warning" diags;
  Alcotest.(check bool) "certificate still issued" true (cert <> None);
  (* Framed schemes suppress the warning. *)
  let diags, _ =
    A.Certify.certify_codes ~workload:"t" ~warn_sync:false ~book:"fixed"
      ~max_len:2 fixed
  in
  has_not "CCCS-W205" diags

(* A skewed histogram pushed past 12-bit codes so the LUT grows overflow
   sub-tables; corruption targets then exist at both levels. *)
let deep_book () =
  let f = Huffman.Freq.create () in
  for i = 0 to 17 do
    Huffman.Freq.add_many f i (1 lsl i)
  done;
  Huffman.Codebook.make ~max_len:16 ~symbol_bits:(fun _ -> 8) f

let find_sym_root tb =
  let module T = Huffman.Canonical.Table in
  let n = T.root_size tb in
  let rec go i =
    if i >= n then Alcotest.fail "no Sym slot in root table"
    else match T.root_slot tb i with T.Sym _ -> i | _ -> go (i + 1)
  in
  go 0

let find_sym_sub tb =
  let module T = Huffman.Canonical.Table in
  let rec go_root i =
    if i >= T.root_size tb then Alcotest.fail "no sub-table in LUT"
    else
      match T.root_slot tb i with
      | T.Sub si ->
          let rec go_sub j =
            if j >= T.sub_size tb si then go_root (i + 1)
            else
              match T.sub_slot tb si j with
              | T.Sym _ -> (si, j)
              | _ -> go_sub (j + 1)
          in
          go_sub 0
      | _ -> go_root (i + 1)
  in
  go_root 0

let test_e202_corrupt_root () =
  let cb = deep_book () in
  let c = Huffman.Codebook.canonical cb in
  Alcotest.(check bool) "lut eligible" true (Huffman.Canonical.lut_eligible c);
  let diags, _ = A.Certify.certify_book ~workload:"t" ("deep", cb) in
  no_errors "uncorrupted book certifies" diags;
  let tb = Huffman.Canonical.table c in
  let i = find_sym_root tb in
  Huffman.Canonical.Table.corrupt_root tb i ~xor:1;
  let diags, _ = A.Certify.certify_book ~workload:"t" ("deep", cb) in
  has "CCCS-E202" diags

let test_e203_corrupt_sub () =
  let cb = deep_book () in
  let c = Huffman.Codebook.canonical cb in
  let tb = Huffman.Canonical.table c in
  let si, j = find_sym_sub tb in
  Huffman.Canonical.Table.corrupt_sub tb si j ~xor:1;
  let diags, _ = A.Certify.certify_book ~workload:"t" ("deep", cb) in
  has "CCCS-E203" diags;
  has_not "CCCS-E202" diags

let test_e204_unpublished_book () =
  let prog = program () in
  let sc = Encoding.Stream_huffman.build prog in
  let stripped = { sc with Scheme.books = [] } in
  let diags = certify stripped in
  has "CCCS-E204" diags;
  (* One E204 per book the model names; the model then bounds nothing,
     for Certify and Timing_check alike. *)
  let named =
    List.filter_map
      (function Scheme.Book_codewords { book; _ } -> Some book | _ -> None)
      sc.Scheme.model
  in
  Alcotest.(check int)
    "one E204 per unpublished book" (List.length named)
    (List.length (List.filter (( = ) "CCCS-E204") (codes diags)));
  Alcotest.(check (pair (option int) (list string)))
    "no bound, every book named" (None, named)
    (A.Certify.resolve_model stripped)

let test_e204_block_bound () =
  let prog = program () in
  let sc = Encoding.Byte_huffman.build prog in
  (* A model claiming 1 bit per op cannot cover any real block. *)
  let shrunk =
    {
      sc with
      Scheme.model =
        [ Scheme.Fixed_bits { label = "op"; min_bits = 0; max_bits = 1 } ];
    }
  in
  let diags = certify shrunk in
  has "CCCS-E204" diags;
  (* Without a program there is no block to bound: model-only check. *)
  let diags, _ = A.Certify.certify_scheme ~workload:"t" shrunk in
  has_not "CCCS-E204" diags

(* ---------------------------------------------------------------- *)
(* Diag.registry invariants                                          *)
(* ---------------------------------------------------------------- *)

let registry_codes () = List.map (fun (c, _, _) -> c) A.Diag.registry

let test_registry_unique_sorted () =
  let cs = registry_codes () in
  Alcotest.(check (list string))
    "codes unique" (List.sort_uniq compare cs) (List.sort compare cs);
  (* Append-only implies the numeric parts are strictly increasing. *)
  let num c = int_of_string (String.sub c 6 (String.length c - 6)) in
  let rec mono = function
    | a :: (b :: _ as rest) ->
        if num a >= num b then
          Alcotest.failf "registry not sorted: %s before %s" a b
        else mono rest
    | _ -> ()
  in
  mono cs

let test_registry_severity_prefix () =
  List.iter
    (fun (c, sev, _) ->
      let expect =
        match c.[5] with
        | 'E' -> A.Diag.Error
        | 'W' -> A.Diag.Warning
        | ch -> Alcotest.failf "%s: unknown severity prefix %c" c ch
      in
      Alcotest.(check bool)
        (c ^ " severity matches its prefix") true (sev = expect))
    A.Diag.registry

(* Every registered code must be emitted somewhere under lib/ — a code no
   pass can raise is dead weight the docs still promise. *)
let lib_sources () =
  let rec up dir n =
    if n = 0 then None
    else
      let p = Filename.concat dir "lib" in
      if Sys.file_exists p && Sys.is_directory p then Some p
      else up (Filename.dirname dir) (n - 1)
  in
  match up (Sys.getcwd ()) 8 with
  | None -> Alcotest.fail "lib/ not found from test cwd"
  | Some lib ->
      let buf = Buffer.create (1 lsl 20) in
      let rec walk dir =
        Array.iter
          (fun f ->
            let p = Filename.concat dir f in
            if Sys.is_directory p then walk p
            else if Filename.check_suffix f ".ml" then begin
              let ic = open_in_bin p in
              let n = in_channel_length ic in
              Buffer.add_string buf (really_input_string ic n);
              close_in ic
            end)
          (Sys.readdir dir)
      in
      walk lib;
      Buffer.contents buf

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_registry_reachable () =
  let src = lib_sources () in
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (c ^ " emitted somewhere under lib/") true
        (contains ~needle:("\"" ^ c ^ "\"") src))
    (registry_codes ())

(* ---------------------------------------------------------------- *)
(* Exit contract: errors fail, warnings pass (shared by lint,        *)
(* validate and certify through Diag.Collector / cert.ok).           *)
(* ---------------------------------------------------------------- *)

let test_exit_contract () =
  let open A.Diag in
  let c = Collector.create () in
  Alcotest.(check int) "empty exits 0" 0 (Collector.exit_status c);
  Collector.add c
    (make ~code:"CCCS-W205" ~loc:(loc "t") "fixed-length code");
  Alcotest.(check int) "warnings-only exits 0" 0 (Collector.exit_status c);
  Collector.add c (make ~code:"CCCS-E200" ~loc:(loc "t") "not prefix-free");
  Alcotest.(check int) "any error exits 1" 1 (Collector.exit_status c);
  (* cert.ok follows the same contract: W205 alone keeps ok=true. *)
  let prog = program () in
  let _, cert =
    A.Certify.certify_scheme ~workload:"t" ~program:prog
      (Encoding.Byte_huffman.build prog)
  in
  Alcotest.(check bool)
    "warnings do not fail a certificate" true
    (cert.A.Certify.ok && cert.A.Certify.errors = 0)

let suite =
  [
    Alcotest.test_case "DFA totality proof" `Quick test_dfa_totality;
    Alcotest.test_case "DFA replay oracle" `Quick test_dfa_run;
    Alcotest.test_case "DFA structural conflicts" `Quick test_dfa_conflicts;
    Alcotest.test_case "DFA synchronization" `Quick test_dfa_sync;
    prop_sync_matches_reference;
    prop_sync_word_at_most_reference;
    prop_sync_word_exact;
    Alcotest.test_case "sync: fir+compress books = ref" `Quick
      test_sync_real_books;
    Alcotest.test_case "sync word exact where ref is loose" `Quick
      test_sync_word_exact_literal;
    Alcotest.test_case "all schemes certify clean" `Quick
      test_certify_clean_all;
    Alcotest.test_case "protected scheme certifies clean" `Quick
      test_certify_clean_protected;
    Alcotest.test_case "LUT slots proved exhaustively" `Quick
      test_certify_proves_luts;
    Alcotest.test_case "E200 non-prefix-free code" `Quick
      test_e200_not_prefix_free;
    Alcotest.test_case "W205 fixed-length code" `Quick test_w205_fixed_length;
    Alcotest.test_case "E202 corrupted LUT root slot" `Quick
      test_e202_corrupt_root;
    Alcotest.test_case "E203 corrupted LUT sub slot" `Quick
      test_e203_corrupt_sub;
    Alcotest.test_case "E204 unpublished codebook" `Quick
      test_e204_unpublished_book;
    Alcotest.test_case "E204 block exceeds certified bound" `Quick
      test_e204_block_bound;
    Alcotest.test_case "registry codes unique and sorted" `Quick
      test_registry_unique_sorted;
    Alcotest.test_case "registry severity matches prefix" `Quick
      test_registry_severity_prefix;
    Alcotest.test_case "registry codes all reachable" `Quick
      test_registry_reachable;
    Alcotest.test_case "errors fail, warnings pass" `Quick test_exit_contract;
  ]
