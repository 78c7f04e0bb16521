(* Decode_dfa — the explicit decode automaton behind a prefix codebook.

   The certification pass (Certify) needs proofs, not samples, so this
   module materializes the decoder a codebook *specifies* as a binary
   trie/DFA and then answers questions about it by exhaustive state
   enumeration:

   - construction itself proves prefix-freeness (a codeword running
     through an emitting state, or two codewords sharing a path, is a
     structural conflict — reported, never papered over);
   - [prove_total] walks every reachable state and shows each one either
     emits a symbol or rejects at a bounded bit position, which is the
     totality obligation of the fetch-path decoder;
   - [run] replays any bit pattern through the automaton, the oracle the
     two-level LUT is compared against slot by slot;
   - [certify_sync] analyzes the pair automaton (clean decoder state x
     corrupted decoder state) under the single-bit-substitution fault
     model and extracts proven resynchronization bounds, upgrading the
     empirical W107 sweep to a static certificate.

   States are the trie nodes; state 0 is the root.  Edges consume one bit
   MSB-first.  A state with [emit >= 0] is a leaf: entering it emits that
   symbol and the decoder restarts at the root. *)

type t = {
  max_len : int;
  nstates : int;
  next : int array;  (* 2*nstates: next.(2s+b), -1 = no edge (reject) *)
  emit : int array;  (* per state: symbol emitted on entry, -1 = internal *)
  depth : int array;  (* per state: bits consumed from the root *)
}

type conflict =
  | Prefix of { shorter : int; longer : int }  (* symbols *)
  | Duplicate of { first : int; second : int }
  | Bad_length of { symbol : int; length : int }

let conflict_to_string = function
  | Prefix { shorter; longer } ->
      Printf.sprintf
        "codeword for symbol %#x is a prefix of the codeword for symbol %#x"
        shorter longer
  | Duplicate { first; second } ->
      Printf.sprintf "symbols %#x and %#x share one codeword" first second
  | Bad_length { symbol; length } ->
      Printf.sprintf
        "symbol %#x has codeword length %d outside the declared bound" symbol
        length

let of_codes ~max_len codes =
  let cap = List.fold_left (fun a (_, _, l) -> a + l) 1 codes in
  let next = Array.make (2 * cap) (-1) in
  let emit = Array.make cap (-1) in
  let depth = Array.make cap 0 in
  let n = ref 1 in
  let exception Conflict of conflict in
  (* Any leaf below [s]; total because internal states always have a
     child (they exist only on codeword paths). *)
  let rec leaf_below s =
    if emit.(s) >= 0 then emit.(s)
    else leaf_below (if next.(2 * s) >= 0 then next.(2 * s) else next.((2 * s) + 1))
  in
  try
    List.iter
      (fun (sym, code, len) ->
        if len < 1 || len > max_len then
          raise (Conflict (Bad_length { symbol = sym; length = len }));
        let s = ref 0 in
        for j = len - 1 downto 0 do
          if emit.(!s) >= 0 then
            raise (Conflict (Prefix { shorter = emit.(!s); longer = sym }));
          let b = (code lsr j) land 1 in
          let t = next.((2 * !s) + b) in
          if t >= 0 then s := t
          else begin
            let t = !n in
            incr n;
            depth.(t) <- depth.(!s) + 1;
            next.((2 * !s) + b) <- t;
            s := t
          end
        done;
        if emit.(!s) >= 0 then
          raise (Conflict (Duplicate { first = emit.(!s); second = sym }));
        if next.(2 * !s) >= 0 || next.((2 * !s) + 1) >= 0 then
          raise (Conflict (Prefix { shorter = sym; longer = leaf_below !s }));
        emit.(!s) <- sym)
      codes;
    Ok
      {
        max_len;
        nstates = !n;
        next = Array.sub next 0 (2 * !n);
        emit = Array.sub emit 0 !n;
        depth = Array.sub depth 0 !n;
      }
  with Conflict c -> Error c

let of_canonical c = of_codes ~max_len:(Huffman.Canonical.max_length c)
    (Huffman.Canonical.to_list c)

(* ------------------------------------------------------------------ *)
(* Totality: exhaustive enumeration over every state.                  *)

type totality = {
  states : int;  (** states enumerated (all of them) *)
  worst_bits : int;  (** certified worst-case bits per emitted symbol *)
  reject_prefixes : int;  (** missing edges: bounded-reject points *)
  complete : bool;  (** no reject prefix — every bit pattern decodes *)
}

type violation = { state : int; depth : int; reason : string }

let prove_total t =
  (* Construction guarantees reachability of every state (each lies on a
     codeword path), so enumerating the arrays IS the exhaustive state
     walk; the checks below re-prove the invariants rather than trust the
     builder. *)
  let worst = ref 0 and rejects = ref 0 in
  let bad = ref None in
  for s = 0 to t.nstates - 1 do
    if !bad = None then
      if t.emit.(s) >= 0 then begin
        if t.next.(2 * s) >= 0 || t.next.((2 * s) + 1) >= 0 then
          bad := Some { state = s; depth = t.depth.(s);
                        reason = "emitting state has outgoing edges" };
        if t.depth.(s) > t.max_len then
          bad := Some { state = s; depth = t.depth.(s);
                        reason = "symbol emitted past the declared maximum \
                                  code length" };
        if t.depth.(s) > !worst then worst := t.depth.(s)
      end
      else begin
        (* Internal: the decoder consumes bit [depth+1] here; both that
           consumption and a missing-edge reject must stay within the
           declared bound. *)
        if t.depth.(s) >= t.max_len then
          bad := Some { state = s; depth = t.depth.(s);
                        reason = "non-emitting state can consume past the \
                                  declared maximum code length" };
        if s > 0 && t.next.(2 * s) < 0 && t.next.((2 * s) + 1) < 0 then
          bad := Some { state = s; depth = t.depth.(s);
                        reason = "dead internal state (no edges, no symbol)" };
        if t.next.(2 * s) < 0 then incr rejects;
        if t.next.((2 * s) + 1) < 0 then incr rejects
      end
  done;
  match !bad with
  | Some v -> Error v
  | None ->
      Ok
        {
          states = t.nstates;
          worst_bits = !worst;
          reject_prefixes = !rejects;
          complete = !rejects = 0;
        }

(* ------------------------------------------------------------------ *)
(* Replay: the oracle the LUT is compared against.                     *)

type outcome =
  | Emits of { symbol : int; length : int }
  | Rejects of { at_bit : int }
  | Continues of { state : int }

let run t ~width w =
  let rec go s j =
    if j >= width then if t.emit.(s) >= 0 then
        Emits { symbol = t.emit.(s); length = t.depth.(s) }
      else Continues { state = s }
    else if t.emit.(s) >= 0 then
      Emits { symbol = t.emit.(s); length = t.depth.(s) }
    else
      let b = (w lsr (width - 1 - j)) land 1 in
      let s' = t.next.((2 * s) + b) in
      if s' < 0 then Rejects { at_bit = j + 1 } else go s' (j + 1)
  in
  go 0 0

(* ------------------------------------------------------------------ *)
(* Resynchronization: the pair automaton (clean state, corrupted state)
   under single-bit substitution.

   A flip inside a codeword sends the corrupted decoder down the sibling
   edge of the clean one; from then on both consume the same (clean)
   bits.  We therefore take as initial pairs the two successors of every
   state, in both orders, when both edges are defined, restrict the clean
   component to transitions the valid stream can actually contain, and
   absorb a pair when the two states coincide (resynchronized) or the
   corrupted side rejects (detected).  Exhaustive search over this finite
   pair graph yields either a proven worst-case bit bound or the cycle
   that makes the desynchronization unbounded within a block.

   Separately, the classical synchronizing-sequence question — can ANY
   window of stream bits force every decoder state into lock-step? — is
   answered over unrestricted words (rejects become a shared absorbing
   error state): if every state pair is mergeable within d bits, a
   synchronizing sequence of at most (live-1)*d bits exists. *)

type sync = {
  live_states : int;
  pairs_reachable : int;  (** non-absorbed pairs reachable from a flip *)
  recoverable : bool;
      (** every reachable pair can still merge or be detected *)
  resync_bits : int option;
      (** proven worst-case bits from flip to merge/detection *)
  sync_word_bits : int option;
      (** upper bound on a universal synchronizing sequence *)
}

let certify_sync t =
  (* Live (internal) states, renumbered densely; the root is live. *)
  let live = Array.make t.nstates (-1) in
  let nlive = ref 0 in
  for s = 0 to t.nstates - 1 do
    if t.emit.(s) < 0 then begin
      live.(s) <- !nlive;
      incr nlive
    end
  done;
  let nlive = !nlive in
  (* Each live state's successor on each bit, tabulated once: entering an
     emitting state wraps to the root (live 0), a missing edge is -1. *)
  let succ = Array.make (2 * nlive) (-1) in
  for s = 0 to t.nstates - 1 do
    if live.(s) >= 0 then
      for b = 0 to 1 do
        let x = t.next.((2 * s) + b) in
        if x >= 0 then
          succ.((2 * live.(s)) + b) <- (if t.emit.(x) >= 0 then 0 else live.(x))
      done
  done;
  (* ---- flip-reachable pair graph, clean component valid ---------- *)
  (* Pair (u clean, v corrupted) has key [u * nlive + v].  On bit [b] it
     moves to another key, or to [no_edge] when the valid stream cannot
     hold [b] at [u], or to [absorbed] when the corrupted side rejects
     (detected) or the two coincide (merged). *)
  let no_edge = -1 and absorbed = -2 in
  let after key b =
    let u' = succ.((2 * (key / nlive)) + b) in
    if u' < 0 then no_edge
    else
      let v' = succ.((2 * (key mod nlive)) + b) in
      if v' < 0 || v' = u' then absorbed else (u' * nlive) + v'
  in
  (* Forward BFS from every flip.  Reachable pairs get dense ids in
     discovery order, so every later array is sized by them, not by
     nlive^2, and the flips' own pairs are ids [0, nflips). *)
  let ids = Hashtbl.create 1024 and q = Queue.create () in
  let add key =
    if not (Hashtbl.mem ids key) then begin
      Hashtbl.add ids key (Hashtbl.length ids);
      Queue.add key q
    end
  in
  for l = 0 to nlive - 1 do
    (* flip of the bit consumed at l, both directions; a missing sibling
       edge rejects on the flipped bit itself: detected, nothing to add *)
    let u = succ.(2 * l) and v = succ.((2 * l) + 1) in
    if u >= 0 && v >= 0 && u <> v then begin
      add ((u * nlive) + v);
      add ((v * nlive) + u)
    end
  done;
  let nflips = Hashtbl.length ids in
  while not (Queue.is_empty q) do
    let key = Queue.pop q in
    for b = 0 to 1 do
      let k = after key b in
      if k >= 0 then add k
    done
  done;
  let n = Hashtbl.length ids in
  let keys = Array.make n 0 in
  Hashtbl.iter (fun key i -> keys.(i) <- key) ids;
  (* edge.(2i + b): the id pair i moves to on bit b, or no_edge/absorbed. *)
  let edge =
    Array.init (2 * n) (fun j ->
        let k = after keys.(j / 2) (j land 1) in
        if k < 0 then k else Hashtbl.find ids k)
  in
  (* Co-reachability of an absorbing outcome: one backward BFS over the
     reversed pair edges, seeded with every pair that has an absorbing
     transition.  Recoverable iff it reaches every reachable pair. *)
  let preds = Array.make n [] in
  Array.iteri
    (fun j e -> if e >= 0 then preds.(e) <- (j / 2) :: preds.(e))
    edge;
  let good = Bytes.make n '\000' and work = Array.make n 0 in
  let nwork = ref 0 in
  let mark i =
    if Bytes.get good i = '\000' then begin
      Bytes.set good i '\001';
      work.(!nwork) <- i;
      incr nwork
    end
  in
  for i = 0 to n - 1 do
    if edge.(2 * i) = absorbed || edge.((2 * i) + 1) = absorbed then mark i
  done;
  let head = ref 0 in
  while !head < !nwork do
    List.iter mark preds.(work.(!head));
    incr head
  done;
  let recoverable = !nwork = n in
  (* Worst-case bits to absorption: longest path over the reachable pair
     graph; a cycle means unbounded.  DFS with colors + memoized longest
     suffix (edges to absorption count 1 bit; the flipped bit itself is
     bit 1). *)
  let color = Bytes.make n '\000' in
  (* 0 unvisited, 1 on stack, 2 done *)
  let longest = Array.make n 0 in
  let exception Cycle in
  let rec dfs i =
    match Bytes.get color i with
    | '\001' -> raise Cycle
    | '\002' -> longest.(i)
    | _ ->
        Bytes.set color i '\001';
        let best = ref 0 in
        for b = 0 to 1 do
          let e = edge.((2 * i) + b) in
          if e = absorbed then best := max !best 1
          else if e >= 0 then best := max !best (1 + dfs e)
        done;
        Bytes.set color i '\002';
        longest.(i) <- !best;
        !best
  in
  let resync_bits =
    if not recoverable then None
    else
      try
        (* at least 1: the flipped bit itself, detected or re-merged *)
        let worst = ref 1 in
        for i = 0 to nflips - 1 do
          worst := max !worst (1 + dfs i)
        done;
        Some !worst
      with Cycle -> None
  in
  (* ---- synchronizing sequence, unrestricted words ----------------- *)
  (* An absorbing Error pseudo-state stands for "reject detected" — it
     joins the universe only when some live state has a missing edge,
     i.e. when it is actually reachable; for complete codes (every
     Huffman book is) it would otherwise poison the mergeability check
     with unreachable pairs. *)
  let has_reject = Array.exists (fun x -> x < 0) succ in
  let nlive' = if has_reject then nlive + 1 else nlive in
  let err = nlive in
  let stepu s b =
    if s = err then err
    else
      let x = succ.((2 * s) + b) in
      if x < 0 then err else x
  in
  (* rev.(2x + b): the states that enter x on bit b. *)
  let rev = Array.make (2 * nlive') [] in
  for s = nlive' - 1 downto 0 do
    for b = 0 to 1 do
      let x = stepu s b in
      rev.((2 * x) + b) <- s :: rev.((2 * x) + b)
    done
  done;
  (* Shortest merging word of every unordered pair {a < c}, by one
     backward BFS from the diagonal: on bit b the predecessors of
     (a', c') are rev_b(a') x rev_b(c'), so the whole search costs
     O(nlive'^2).  A BFS level is a queue segment, so no distance is
     stored: a pair takes one seen byte, at its triangular index, and
     one int32 queue slot holding its key [a * nlive' + c]. *)
  if nlive' > 46340 then
    invalid_arg "Decode_dfa.certify_sync: pair keys outgrow int32";
  let npairs = nlive' * (nlive' - 1) / 2 in
  let seen = Bytes.make npairs '\000' in
  let queue = Bigarray.(Array1.create int32 c_layout npairs) in
  let tail = ref 0 in
  let mark a c =
    let tri = (c * (c - 1) / 2) + a in
    if Bytes.get seen tri = '\000' then begin
      Bytes.set seen tri '\001';
      queue.{!tail} <- Int32.of_int ((a * nlive') + c);
      incr tail
    end
  in
  let visit x y = if x < y then mark x y else if y < x then mark y x in
  let expand a c =
    for b = 0 to 1 do
      List.iter
        (fun x -> List.iter (visit x) rev.((2 * c) + b))
        rev.((2 * a) + b)
    done
  in
  (* Level 1: the pairs that merge in one bit, i.e. enter some (x, x). *)
  for x = 0 to nlive' - 1 do
    expand x x
  done;
  let head = ref 0 and maxd = ref 0 in
  while !head < !tail do
    incr maxd;
    let level_end = !tail in
    while !head < level_end do
      let key = Int32.to_int queue.{!head} in
      incr head;
      expand (key / nlive') (key mod nlive')
    done
  done;
  let sync_word_bits =
    if nlive <= 1 then Some 0
    else if !tail = npairs then Some ((nlive' - 1) * !maxd)
    else None
  in
  {
    live_states = nlive;
    pairs_reachable = n;
    recoverable;
    resync_bits;
    sync_word_bits;
  }
