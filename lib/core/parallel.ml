(* Domain-parallel map with deterministic results — and a "never lose"
   contract.

   The experiment sweeps are embarrassingly parallel across workloads (the
   fault campaigns across schemes), so the engine stays small: a pool of
   worker domains per call, a shared atomic work counter, results gathered
   into a slot array and returned in input order.  Nothing about the
   schedule can leak into the output — every slot [i] holds
   [f items.(i)] and the gather re-reads the array left to right — so a
   parallel sweep is bit-identical to the sequential one as long as [f]
   itself is deterministic.  The differential tests make that a hard
   invariant.

   Never-lose rules (the perf/sweep/jobs4 = 0.46x regression, measured on
   a 1-core container, is the case they exist to kill):
   - [map ~jobs:n] is clamped to the machine's core count: on a 1-core box
     every parallel request degrades to the plain sequential map (zero
     domains spawned, zero STW minor-GC crosstalk).  [~force:true]
     bypasses the clamp for tests that must exercise real domains.
   - Work is claimed dynamically off an atomic counter (not a static
     round-robin partition), so one slow item cannot strand the rest of
     the pool behind it.
   - Before the first spawn each process widens the minor heap: parallel
     OCaml 5 minor collections are stop-the-world across domains, so the
     default 256k-word arena turns allocation-heavy workers into a GC
     convoy.  One Gc.set per process, applied only when the user has not
     already tuned it higher.

   Determinism rules for tasks:
   - [f] must not touch caller-domain memo tables.  The per-process caches
     (Workload_run, Experiments) are domain-local (DLS), so each worker
     builds its own schemes — a deliberate trade of duplicated construction
     for zero shared mutable state (Canonical decode tables are lazily
     built mutable fields and must never be shared across domains).
   - [f] must not emit telemetry to a shared sink; callers pass [~jobs:1]
     when an observer is installed.
   - Nested parallel regions degrade to sequential (the worker flag below),
     so a parallel campaign calling a parallel sweep cannot oversubscribe
     the machine or deadlock the pool. *)

let max_jobs = 64

(* Set while a domain is executing pool work (including the caller domain
   running its own share); any Parallel.map issued from such a context runs
   sequentially in place. *)
let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* One source of truth for the machine's capacity: the default pool size,
   the sequential-degrade clamp and the perf reports' "cores" figure all
   read it, so they can never disagree. *)
let cores () = Domain.recommended_domain_count ()

let default_jobs () =
  match Sys.getenv_opt "CCCS_JOBS" with
  | None -> 1
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      (* Capping at the recommended domain count means an over-eager
         CCCS_JOBS on a small machine cannot select the oversubscribed
         regression the perf sweep once recorded (jobs=4 on 1 core). *)
      | Some n when n >= 1 -> min (min n max_jobs) (max 1 (cores ()))
      | Some _ | None -> 1)

let effective_jobs ?(force = false) ?jobs n =
  let requested =
    match jobs with Some j -> max 1 (min j max_jobs) | None -> default_jobs ()
  in
  let capped = if force then requested else min requested (max 1 (cores ())) in
  min capped n

let sequential f xs = List.map f xs

(* Per-domain minor heaps: 1M words (8 MB) instead of the 256k default.
   Applied once per process, first time a pool is actually spawned, and
   never shrinks a user-chosen larger arena (OCAMLRUNPARAM wins). *)
let minor_heap_words = 1 lsl 20
let heap_tuned = ref false

let tune_minor_heap () =
  if not !heap_tuned then begin
    heap_tuned := true;
    let g = Gc.get () in
    if g.Gc.minor_heap_size < minor_heap_words then
      Gc.set { g with Gc.minor_heap_size = minor_heap_words }
  end

(* All failing item indices, attached to the re-raised exception so a
   fuzz or bench failure names every failed item, not just the first.
   The smallest-index exception stays the carrier (same constructor when
   it is one of the message-bearing stdlib ones), keeping single-failure
   behaviour byte-identical to a sequential raise. *)
let attach_indices exn indices =
  match indices with
  | [] | [ _ ] -> exn
  | _ ->
      let idxs = String.concat "," (List.map string_of_int indices) in
      let suffix =
        Printf.sprintf " [parallel: %d items failed: %s]"
          (List.length indices) idxs
      in
      (match exn with
      | Failure m -> Failure (m ^ suffix)
      | Invalid_argument m -> Invalid_argument (m ^ suffix)
      | e -> Failure (Printexc.to_string e ^ suffix))

let map ?jobs ?force f xs =
  let n = List.length xs in
  let jobs = effective_jobs ?force ?jobs n in
  if jobs <= 1 || Domain.DLS.get in_worker then sequential f xs
  else begin
    let items = Array.of_list xs in
    let slots = Array.make n None in
    let failures = Array.make n None in
    let next = Atomic.make 0 in
    (* Workers claim items off the shared counter until it runs dry.  A
       failing item is recorded in its slot and the worker moves on, so
       the set of failing indices is a function of [f] and the input
       alone — independent of the schedule — and every worker is joined
       before anything is re-raised. *)
    let body () =
      Domain.DLS.set in_worker true;
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n then continue := false
        else
          match f items.(i) with
          | v -> slots.(i) <- Some v
          | exception e ->
              failures.(i) <- Some (e, Printexc.get_raw_backtrace ())
      done;
      Domain.DLS.set in_worker false
    in
    tune_minor_heap ();
    let pool = Array.init (jobs - 1) (fun _ -> Domain.spawn body) in
    body ();
    Array.iter Domain.join pool;
    let failed = ref [] in
    for i = n - 1 downto 0 do
      match failures.(i) with
      | Some _ -> failed := i :: !failed
      | None -> ()
    done;
    (match !failed with
    | [] -> ()
    | first :: _ as indices ->
        let e, bt = Option.get failures.(first) in
        Printexc.raise_with_backtrace (attach_indices e indices) bt);
    Array.to_list
      (Array.map (function Some v -> v | None -> assert false) slots)
  end
