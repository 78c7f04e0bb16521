(* Self-time attribution over the recorded span stream.

   Sink.timed emits one Span per instrumented region, carrying wall-clock
   (processor-time) start and duration.  Because a region's span is
   emitted *after* its children's (the child's clock readings are taken
   strictly inside the parent's), parent/child structure is exactly
   interval containment — no explicit stack ids are needed.  This module
   rebuilds that nesting, charges each frame its *exclusive* (self) time
   — duration minus the duration of its direct children — and exports the
   result as collapsed-stack lines (flamegraph.pl / speedscope / inferno
   compatible).  A --flame FILE.json is the spans themselves as a Chrome
   trace (Export.chrome_trace); Perfetto nests them by interval.

   Invariant the tests pin down: the self times of a tree sum to the
   duration of its root (children only ever redistribute time downwards),
   so summing every exported value reproduces total instrumented wall
   time. *)

type node = {
  stage : Event.stage;
  label : string;
  start_us : float;
  dur_us : float;
  self_us : float;
  children : node list;  (* chronological *)
}

let frame n = Event.stage_name n.stage ^ ":" ^ n.label

(* Mutable shadow used only during construction. *)
type mnode = {
  m_stage : Event.stage;
  m_label : string;
  m_start : float;
  m_dur : float;
  mutable m_children : mnode list;  (* reverse chronological *)
}

let end_of (n : mnode) = n.m_start +. n.m_dur

(* Tolerance for float containment checks: spans are microsecond-grained,
   so a nanosecond slack cannot misparent anything real. *)
let eps = 1e-3

let contains p c =
  c.m_start >= p.m_start -. eps && end_of c <= end_of p +. eps

let of_events events =
  let spans = ref [] in
  Array.iter
    (fun e ->
      match e with
      | Event.Span { stage; label; start_us; dur_us } ->
          spans :=
            {
              m_stage = stage;
              m_label = label;
              m_start = start_us;
              m_dur = Float.max dur_us 0.;
              m_children = [];
            }
            :: !spans
      | _ -> ())
    events;
  (* Sort outermost-first: by start ascending, then duration descending,
     so a parent always precedes the children it contains. *)
  let sorted =
    List.stable_sort
      (fun a b ->
        match compare a.m_start b.m_start with
        | 0 -> compare b.m_dur a.m_dur
        | c -> c)
      (List.rev !spans)
  in
  let roots = ref [] in
  let stack = ref [] in
  List.iter
    (fun n ->
      let rec unwind () =
        match !stack with
        | top :: rest when not (contains top n) ->
            stack := rest;
            unwind ()
        | _ -> ()
      in
      unwind ();
      (match !stack with
      | top :: _ -> top.m_children <- n :: top.m_children
      | [] -> roots := n :: !roots);
      stack := n :: !stack)
    sorted;
  let rec freeze (m : mnode) =
    let children = List.rev_map freeze m.m_children in
    let child_dur =
      List.fold_left (fun a c -> a +. c.dur_us) 0. children
    in
    {
      stage = m.m_stage;
      label = m.m_label;
      start_us = m.m_start;
      dur_us = m.m_dur;
      self_us = Float.max 0. (m.m_dur -. child_dur);
      children;
    }
  in
  List.rev_map freeze !roots

let total_us nodes = List.fold_left (fun a n -> a +. n.dur_us) 0. nodes

(* Per-frame exclusive totals, largest first. *)
let self_times nodes =
  let tbl = Hashtbl.create 32 in
  let rec visit n =
    let k = frame n in
    Hashtbl.replace tbl k
      (n.self_us +. Option.value ~default:0. (Hashtbl.find_opt tbl k));
    List.iter visit n.children
  in
  List.iter visit nodes;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (ka, a) (kb, b) ->
         match compare b a with 0 -> compare ka kb | c -> c)

(* Collapsed-stack lines: "frame;frame;frame <self-us>", one line per
   frame with nonzero integer self time.  Values are integer microseconds
   (flamegraph counts must be integral); frames whose self time rounds to
   zero are dropped, which loses under half a microsecond per frame. *)
let collapsed nodes =
  let b = Buffer.create 512 in
  let rec visit path n =
    let path = if path = "" then frame n else path ^ ";" ^ frame n in
    let v = int_of_float (Float.round n.self_us) in
    if v > 0 then Buffer.add_string b (Printf.sprintf "%s %d\n" path v);
    List.iter (visit path) n.children
  in
  List.iter (visit "") nodes;
  Buffer.contents b

(* Write the collapsed stacks of [events]' spans to [path], or, when
   [path] ends in ".json", the events as a Chrome trace. *)
let write ~path events =
  Export.write_file path
    (if Filename.check_suffix path ".json" then
       Json.to_string (Export.chrome_trace [ ("spans", events) ]) ^ "\n"
     else collapsed (of_events events))
