(* In-memory span recorder for the traced benchmark run.

   Spans are timed on the monotonic wall clock (never [Sys.time], which sums
   CPU time over domains) and tagged with the domain that ran them.  Each
   domain appends to its own buffer, so recording takes no lock; the buffers
   are registered once per domain and read only after every worker has been
   joined.  A span's parent is the innermost open span of the same domain,
   or, for the first span a pool worker opens, the [cause] its caller passed
   in.  With tracing off, [with_] is a plain call. *)

type t = {
  id : int;
  parent : int;  (** -1 for a root *)
  domain : int;
  name : string;  (** the per-layer metric the span's self time feeds *)
  start_ns : int64;
  stop_ns : int64;
}

let now_ns () = Monotonic_clock.now ()
let now () = Int64.to_float (now_ns ()) *. 1e-9
let seconds_between a b = Int64.to_float (Int64.sub b a) *. 1e-9
let enabled = ref false

type buffer = {
  mutable spans : t list;
  mutable stack : int list;
}

let next_id = Atomic.make 0
let buffers : buffer list Atomic.t = Atomic.make []

let rec register b =
  let old = Atomic.get buffers in
  if not (Atomic.compare_and_set buffers old (b :: old)) then register b

let buffer_key =
  Domain.DLS.new_key (fun () ->
      let b = { spans = []; stack = [] } in
      register b;
      b)

(* The innermost open span of the calling domain: what a caller hands to
   pool workers as their [cause]. *)
let current () =
  if not !enabled then -1
  else match (Domain.DLS.get buffer_key).stack with p :: _ -> p | [] -> -1

let with_ ?(cause = -1) name f =
  if not !enabled then f ()
  else begin
    let b = Domain.DLS.get buffer_key in
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = match b.stack with p :: _ -> p | [] -> cause in
    b.stack <- id :: b.stack;
    let start_ns = now_ns () in
    let close () =
      let stop_ns = now_ns () in
      b.stack <- List.tl b.stack;
      b.spans <-
        { id; parent; domain = (Domain.self () :> int); name; start_ns; stop_ns }
        :: b.spans
    in
    Fun.protect ~finally:close f
  end

(* Every span recorded so far, all domains, in start order. *)
let all () =
  List.concat_map (fun b -> b.spans) (Atomic.get buffers)
  |> List.sort (fun a b -> Int64.compare a.start_ns b.start_ns)

let duration s = seconds_between s.start_ns s.stop_ns

(* [self_times spans] — per span name, the summed duration minus the part
   covered by child spans of the same domain.  A child in another domain
   runs concurrently with its cause and is not subtracted from it. *)
let self_times spans =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let self = Hashtbl.create 64 in
  let add name v =
    Hashtbl.replace self name
      (v +. Option.value ~default:0. (Hashtbl.find_opt self name))
  in
  List.iter
    (fun s ->
      add s.name (duration s);
      match Hashtbl.find_opt by_id s.parent with
      | Some p when p.domain = s.domain -> add p.name (-.duration s)
      | _ -> ())
    spans;
  self

(* [descendants spans root] — the spans whose parent chain reaches [root]. *)
let descendants spans root =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let rec under s =
    s.parent = root
    || match Hashtbl.find_opt by_id s.parent with
       | Some p -> under p
       | None -> false
  in
  List.filter under spans

let to_json_line s =
  Printf.sprintf
    {|{"id":%d,"parent":%d,"domain":%d,"name":"%s","start_ns":%Ld,"stop_ns":%Ld}|}
    s.id s.parent s.domain s.name s.start_ns s.stop_ns

let write path spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter (fun s -> output_string oc (to_json_line s ^ "\n")) spans)
