(* The decode automaton and its pair analysis exactly as they stood before
   [Decode_dfa.certify_sync] became three single-pass graph searches: the
   co-reachability fixpoint that rescans every reachable pair until nothing
   changes, and the synchronizing-word sweep over all live^2 pairs once per
   level.  Kept verbatim (only the record and conflict types are re-exported
   from [Decode_dfa]) as the reference oracle the certify suite compares the
   production analysis against. *)

module D = Cccs_analysis.Decode_dfa

type t = {
  max_len : int;
  nstates : int;
  next : int array;  (* 2*nstates: next.(2s+b), -1 = no edge (reject) *)
  emit : int array;  (* per state: symbol emitted on entry, -1 = internal *)
  depth : int array;  (* per state: bits consumed from the root *)
}

type conflict = D.conflict =
  | Prefix of { shorter : int; longer : int }  (* symbols *)
  | Duplicate of { first : int; second : int }
  | Bad_length of { symbol : int; length : int }

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

type sync = D.sync = {
  live_states : int;
  pairs_reachable : int;  (** non-absorbed pairs reachable from a flip *)
  recoverable : bool;
      (** every reachable pair can still merge or be detected *)
  resync_bits : int option;
      (** proven worst-case bits from flip to merge/detection *)
  sync_word_bits : int option;
      (** upper bound on a universal synchronizing sequence *)
}

(* step with wrap: entering an emitting state restarts at the root. *)
let step t s b =
  let x = t.next.((2 * s) + b) in
  if x < 0 then None else if t.emit.(x) >= 0 then Some 0 else Some x

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
  let back = Array.make nlive 0 in
  Array.iteri (fun s l -> if l >= 0 then back.(l) <- s) live;
  let pid u v = (live.(u) * nlive) + live.(v) in
  (* ---- flip-reachable pair graph, clean component valid ---------- *)
  (* 0 = unseen, 1 = reachable.  Absorbing outcomes are not stored. *)
  let npairs = nlive * nlive in
  let seen = Bytes.make npairs '\000' in
  let q = Queue.create () in
  let add u v =
    (* u: clean decoder, v: corrupted; equal means merged (absorbed). *)
    if u <> v then begin
      let p = pid u v in
      if Bytes.get seen p = '\000' then begin
        Bytes.set seen p '\001';
        Queue.add (u, v) q
      end
    end
  in
  for s = 0 to t.nstates - 1 do
    if t.emit.(s) < 0 then
      match (step t s 0, step t s 1) with
      | Some u, Some v ->
          (* flip of the bit consumed at s, both directions *)
          add u v;
          add v u
      | _ -> ()
      (* a missing sibling edge: the corrupted stream rejects on the
         flipped bit itself — detected within one bit, nothing to add *)
  done;
  let initial = Queue.fold (fun acc p -> p :: acc) [] q in
  while not (Queue.is_empty q) do
    let u, v = Queue.pop q in
    for b = 0 to 1 do
      match step t u b with
      | None -> ()  (* the valid stream cannot contain b here *)
      | Some u' -> (
          match step t v b with
          | None -> ()  (* detected: absorbing *)
          | Some v' -> add u' v')
    done
  done;
  let reachable = ref [] in
  for p = 0 to npairs - 1 do
    if Bytes.get seen p = '\001' then reachable := p :: !reachable
  done;
  let reachable = !reachable in
  (* Co-reachability of an absorbing outcome, by reverse fixpoint: a pair
     is good if some valid transition is absorbing or leads to a good
     pair.  Iterate to fixpoint (graphs here are small). *)
  let good = Bytes.make npairs '\000' in
  let absorbing_from u v =
    let out = ref false in
    for b = 0 to 1 do
      match step t u b with
      | None -> ()
      | Some u' -> (
          match step t v b with
          | None -> out := true  (* detected *)
          | Some v' -> if u' = v' then out := true)
    done;
    !out
  in
  List.iter
    (fun p ->
      let u = back.(p / nlive) and v = back.(p mod nlive) in
      if absorbing_from u v then Bytes.set good p '\001')
    reachable;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun p ->
        if Bytes.get good p = '\000' then begin
          let u = back.(p / nlive) and v = back.(p mod nlive) in
          let escapes = ref false in
          for b = 0 to 1 do
            match (step t u b, step t v b) with
            | Some u', Some v' when u' <> v' ->
                if Bytes.get good (pid u' v') = '\001' then escapes := true
            | _ -> ()
          done;
          if !escapes then begin
            Bytes.set good p '\001';
            changed := true
          end
        end)
      reachable
  done;
  let recoverable =
    List.for_all (fun p -> Bytes.get good p = '\001') reachable
  in
  (* Worst-case bits to absorption: longest path over the reachable pair
     graph; a cycle means unbounded.  DFS with colors + memoized longest
     suffix (edges to absorption count 1 bit; the flipped bit itself is
     bit 1). *)
  let color = Bytes.make npairs '\000' in
  (* 0 unvisited, 1 on stack, 2 done *)
  let longest = Array.make npairs 0 in
  let exception Cycle in
  let rec dfs p =
    match Bytes.get color p with
    | '\001' -> raise Cycle
    | '\002' -> longest.(p)
    | _ ->
        Bytes.set color p '\001';
        let u = back.(p / nlive) and v = back.(p mod nlive) in
        let best = ref 0 in
        for b = 0 to 1 do
          match step t u b with
          | None -> ()
          | Some u' -> (
              match step t v b with
              | None -> best := max !best 1
              | Some v' ->
                  if u' = v' then best := max !best 1
                  else best := max !best (1 + dfs (pid u' v')))
        done;
        Bytes.set color p '\002';
        longest.(p) <- !best;
        !best
  in
  let resync_bits =
    if not recoverable then None
    else
      try
        Some
          (List.fold_left
             (fun a (u, v) -> max a (1 + dfs (pid u v)))
             1 initial)
        (* at least 1: the flipped bit itself, detected or re-merged *)
      with Cycle -> None
  in
  (* ---- synchronizing sequence, unrestricted words ----------------- *)
  (* Pair distance = a word length making the two components equal;
     iterated sweeps over the reverse pair graph from the merged
     frontier.  An absorbing Error pseudo-state stands for "reject
     detected" — it joins the universe only when some live state has a
     missing edge, i.e. when it is actually reachable; for complete
     codes (every Huffman book is) it would otherwise poison the
     mergeability check with unreachable pairs. *)
  let has_reject =
    let r = ref false in
    for s = 0 to t.nstates - 1 do
      if t.emit.(s) < 0
         && (t.next.(2 * s) < 0 || t.next.((2 * s) + 1) < 0)
      then r := true
    done;
    !r
  in
  let nlive' = if has_reject then nlive + 1 else nlive in
  let err = nlive in
  let stepu s b = if s = err then err
    else match step t back.(s) b with None -> err | Some x -> live.(x)
  in
  let npairs' = nlive' * nlive' in
  let dist = Array.make npairs' (-1) in
  let qq = Queue.create () in
  (* Frontier: pairs that merge in one bit. *)
  for a = 0 to nlive' - 1 do
    for b' = 0 to nlive' - 1 do
      if a <> b' then
        for bit = 0 to 1 do
          let p = (a * nlive') + b' in
          if dist.(p) < 0 && stepu a bit = stepu b' bit then begin
            dist.(p) <- 1;
            Queue.add p qq
          end
        done
    done
  done;
  (* Reverse edges by forward scan per BFS level (graphs are small). *)
  let pending = ref (npairs' - nlive') in
  let count_known () =
    let k = ref 0 in
    Array.iter (fun d -> if d >= 0 then incr k) dist;
    !k
  in
  pending := npairs' - nlive' - count_known ();
  let progress = ref true in
  while !pending > 0 && !progress do
    progress := false;
    for a = 0 to nlive' - 1 do
      for b' = 0 to nlive' - 1 do
        if a <> b' then begin
          let p = (a * nlive') + b' in
          if dist.(p) < 0 then
            for bit = 0 to 1 do
              let a' = stepu a bit and b2 = stepu b' bit in
              if a' <> b2 then begin
                let p' = (a' * nlive') + b2 in
                if dist.(p') >= 0
                   && (dist.(p) < 0 || dist.(p) > dist.(p') + 1)
                then begin
                  if dist.(p) < 0 then begin
                    decr pending;
                    progress := true
                  end;
                  dist.(p) <- dist.(p') + 1
                end
              end
            done
        end
      done
    done
  done;
  let all_mergeable = ref true and maxd = ref 0 in
  for a = 0 to nlive' - 1 do
    for b' = 0 to nlive' - 1 do
      if a <> b' then begin
        let d = dist.((a * nlive') + b') in
        if d < 0 then all_mergeable := false else maxd := max !maxd d
      end
    done
  done;
  let sync_word_bits =
    if nlive <= 1 then Some 0
    else if !all_mergeable then Some ((nlive' - 1) * !maxd)
    else None
  in
  {
    live_states = nlive;
    pairs_reachable = List.length reachable;
    recoverable;
    resync_bits;
    sync_word_bits;
  }
