(* [Cache_ai.analyze] exactly as it stood before the reverse-postorder
   worklist: a FIFO worklist that takes duplicate entries, copies the four
   dense state arrays at every step and again for every successor.  Kept
   verbatim (only the result types are re-exported from [Cache_ai] and
   [Cfg_recover] is aliased) as the reference oracle the wcet suite
   compares the production analysis against. *)

module Cfg_recover = Cccs_analysis.Cfg_recover
module CA = Cccs_analysis.Cache_ai

type classification = CA.classification = Always_hit | Always_miss | Unclassified

type block_class = CA.block_class = {
  cache : classification;
  atb : classification;
}

type t = CA.t = {
  classes : block_class array;
  lines : (int * int) array;
  reachable : bool array;
}

(* Abstract state at a program point. *)
type state = {
  must : int array;  (* line -> LRU age upper bound; [absent] if not must *)
  may : bool array;  (* line -> possibly touched since reset *)
  may_vis : bool array;  (* block -> possibly visited already *)
  must_vis : bool array;  (* block -> definitely visited already *)
}

let absent = max_int

let copy_state s =
  {
    must = Array.copy s.must;
    may = Array.copy s.may;
    may_vis = Array.copy s.may_vis;
    must_vis = Array.copy s.must_vis;
  }

(* Entry state: caches, buffer and ATB all start empty. *)
let initial ~nlines ~nblocks =
  {
    must = Array.make nlines absent;
    may = Array.make nlines false;
    may_vis = Array.make nblocks false;
    must_vis = Array.make nblocks false;
  }

(* [join dst src] — merge [src] into [dst]; true when [dst] changed. *)
let join dst src =
  let changed = ref false in
  Array.iteri
    (fun l a ->
      let b = src.must.(l) in
      let m = if a = absent || b = absent then absent else max a b in
      if m <> a then begin
        dst.must.(l) <- m;
        changed := true
      end)
    dst.must;
  Array.iteri
    (fun l v ->
      if src.may.(l) && not v then begin
        dst.may.(l) <- true;
        changed := true
      end)
    dst.may;
  Array.iteri
    (fun b v ->
      if src.may_vis.(b) && not v then begin
        dst.may_vis.(b) <- true;
        changed := true
      end)
    dst.may_vis;
  Array.iteri
    (fun b v ->
      if v && not src.must_vis.(b) then begin
        dst.must_vis.(b) <- false;
        changed := true
      end)
    dst.must_vis;
  !changed

(* LRU must-update for one line reference, applied to the age array alone:
   same-set lines provably younger than the referenced line's old age grow
   older by one (falling out at [ways]); the referenced line becomes the
   youngest.  [absent] as the old age is the miss case — every present
   same-set line ages. *)
let must_touch_line ~sets ~ways must l =
  let set = l mod sets in
  let old = must.(l) in
  let n = Array.length must in
  let m = ref set in
  while !m < n do
    let age = must.(!m) in
    if !m <> l && age <> absent && age < old then
      must.(!m) <- (if age + 1 >= ways then absent else age + 1);
    m := !m + sets
  done;
  must.(l) <- 0

let must_touch_block ~sets ~ways must (first, last) =
  for l = first to last do
    must_touch_line ~sets ~ways must l
  done

(* Transfer of one visit to block [b].  With the L0 buffer in play the
   line-cache touch is conditional: it definitely happens only when the
   block cannot already be buffered (first visit on every path).  An
   uncertain touch meets the touched and untouched must states. *)
let transfer ~sets ~ways ~compressed ~lines st b =
  let span = lines.(b) in
  let definite_touch = (not compressed) || not st.may_vis.(b) in
  (if definite_touch then must_touch_block ~sets ~ways st.must span
   else begin
     let touched = Array.copy st.must in
     must_touch_block ~sets ~ways touched span;
     Array.iteri
       (fun l a ->
         let t = touched.(l) in
         st.must.(l) <-
           (if a = absent || t = absent then absent else max a t))
       st.must
   end);
  (* May-touched grows on every possible touch path. *)
  let first, last = span in
  for l = first to last do
    st.may.(l) <- true
  done;
  (* The ATB looks up (and on miss inserts) on every visit, before the
     buffer is consulted — visited-ness is unconditional. *)
  st.may_vis.(b) <- true;
  st.must_vis.(b) <- true

let analyze ~(cfg : Cfg_recover.t) ~(fetch_cfg : Fetch.Config.t) ~compressed
    ~offsets ~sizes ~entry =
  let nblocks = cfg.Cfg_recover.nblocks in
  let lines =
    Array.init nblocks (fun i ->
        Fetch.Config.line_span fetch_cfg ~offset_bits:offsets.(i)
          ~size_bits:sizes.(i))
  in
  let unclassified = { cache = Unclassified; atb = Unclassified } in
  if fetch_cfg.Fetch.Config.prefetch_next then
    (* Prefetch touches lines outside the visit sequence (and pollutes on
       wrong guesses): both the must and may domains above are unsound for
       it, so everything stays unclassified — the WCET falls back to the
       all-miss charge, which prefetch can only improve on. *)
    {
      classes = Array.make nblocks unclassified;
      lines;
      reachable = Array.copy cfg.Cfg_recover.reachable;
    }
  else begin
    let sets = Fetch.Config.num_sets fetch_cfg in
    let ways = fetch_cfg.Fetch.Config.ways in
    let nlines =
      Array.fold_left (fun a (_, last) -> max a (last + 1)) 0 lines
    in
    let in_states : state option array = Array.make (max nblocks 1) None in
    let queue = Queue.create () in
    let propagate src dst =
      if dst >= 0 && dst < nblocks then
        match in_states.(dst) with
        | None ->
            in_states.(dst) <- Some src;
            Queue.add dst queue
        | Some cur -> if join cur src then Queue.add dst queue
    in
    if nblocks > 0 && entry >= 0 && entry < nblocks then begin
      in_states.(entry) <- Some (initial ~nlines ~nblocks);
      Queue.add entry queue
    end;
    while not (Queue.is_empty queue) do
      let b = Queue.pop queue in
      match in_states.(b) with
      | None -> ()
      | Some st ->
          let out = copy_state st in
          transfer ~sets ~ways ~compressed ~lines out b;
          List.iter
            (fun s -> propagate (copy_state out) s)
            cfg.Cfg_recover.succs.(b)
    done;
    let classify b =
      match in_states.(b) with
      | None -> unclassified (* unreachable: never fetched *)
      | Some st ->
          let first, last = lines.(b) in
          let all_must = ref true and some_never = ref false in
          for l = first to last do
            if st.must.(l) = absent then all_must := false;
            if not st.may.(l) then some_never := true
          done;
          let cache =
            if !all_must then Always_hit
            else if
              !some_never && ((not compressed) || not st.may_vis.(b))
              (* an L0 buffer hit counts as a fetch hit in Sim, so
                 always-miss additionally needs a definitely-cold buffer *)
            then Always_miss
            else Unclassified
          in
          let atb =
            if not st.may_vis.(b) then Always_miss
            else if
              nblocks <= fetch_cfg.Fetch.Config.atb_entries
              && st.must_vis.(b)
              (* with the working set inside the ATB's capacity nothing is
                 ever evicted, so visited once means resident forever *)
            then Always_hit
            else Unclassified
          in
          { cache; atb }
    in
    {
      classes = Array.init nblocks classify;
      lines;
      reachable = Array.copy cfg.Cfg_recover.reachable;
    }
  end
