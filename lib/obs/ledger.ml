(* Append-only cross-run telemetry ledger.

   Every measuring entry point (bench, cccs verify, faults, fuzz) appends
   one JSON line (schema "cccs-ledger/1") describing the invocation: what
   kind of run it was, which git revision and machine shape produced it,
   and the full result rows.  Unlike the BENCH_*.json snapshots — which
   are overwritten on every run — the ledger is a time series: Compare
   and the `cccs perfdiff` subcommand read consecutive entries out of it
   to answer "did this commit make decode slower?".

   The module is stdlib-only (like the rest of cccs_obs), so wall-clock
   timestamps and core counts are supplied by the caller; the git
   revision helper reads .git/HEAD directly instead of shelling out. *)

let schema = "cccs-ledger/1"

type entry = {
  kind : string;
      (* "bench" | "bench_perf" | "verify_all" (cccs verify) | "faults" | ... *)
  git_rev : string;
  timestamp : float;  (* unix seconds, caller-supplied *)
  cores : int;
  jobs : int;
  schemes : string list;
  rows : Json.t list;  (* kind-specific result rows, each an Obj with "name" *)
  meta : (string * Json.t) list;  (* free-form extras (seed, mode, ...) *)
}

let make ~kind ?(git_rev = "unknown") ~timestamp ?(cores = 1) ?(jobs = 1)
    ?(schemes = []) ?(meta = []) rows =
  { kind; git_rev; timestamp; cores; jobs; schemes; rows; meta }

(* ------------------------------------------------------------------ *)
(* JSON (de)serialization *)

let to_json e =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("kind", Json.Str e.kind);
      ("git_rev", Json.Str e.git_rev);
      ("timestamp", Json.Num e.timestamp);
      ("cores", Json.int e.cores);
      ("jobs", Json.int e.jobs);
      ("schemes", Json.Arr (List.map (fun s -> Json.Str s) e.schemes));
      ("rows", Json.Arr e.rows);
      ("meta", Json.Obj e.meta);
    ]

let of_json j =
  let str k = match Json.member k j with Some (Json.Str s) -> Some s | _ -> None in
  let num k = match Json.member k j with Some (Json.Num n) -> Some n | _ -> None in
  match str "schema" with
  | Some s when s <> schema -> Error (Printf.sprintf "unsupported schema %S" s)
  | None -> Error "missing \"schema\""
  | Some _ -> (
      match (str "kind", num "timestamp", Json.member "rows" j) with
      | None, _, _ -> Error "missing \"kind\""
      | _, None, _ -> Error "missing \"timestamp\""
      | _, _, (None | Some (Json.Null)) -> Error "missing \"rows\""
      | Some kind, Some timestamp, Some rows_j -> (
          match Json.to_list rows_j with
          | None -> Error "\"rows\" is not an array"
          | Some rows ->
              let int_of k d =
                match num k with Some n -> int_of_float n | None -> d
              in
              let schemes =
                match Option.bind (Json.member "schemes" j) Json.to_list with
                | Some l ->
                    List.filter_map
                      (function Json.Str s -> Some s | _ -> None)
                      l
                | None -> []
              in
              let meta =
                match Json.member "meta" j with
                | Some (Json.Obj kvs) -> kvs
                | _ -> []
              in
              Ok
                {
                  kind;
                  git_rev = Option.value ~default:"unknown" (str "git_rev");
                  timestamp;
                  cores = int_of "cores" 1;
                  jobs = int_of "jobs" 1;
                  schemes;
                  rows;
                  meta;
                }))

(* ------------------------------------------------------------------ *)
(* File layout: one compact JSON object per line, append-only. *)

let append ~path e =
  let oc =
    open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path
  in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string (to_json e));
      output_char oc '\n')

(* Load every parseable entry; a corrupted or foreign line is skipped and
   reported as a warning string ("line N: why"), never a failure — an
   interrupted append or a hand-edited file must not take the whole
   history down with it. *)
let load ~path =
  if not (Sys.file_exists path) then ([], [])
  else begin
    let ic = open_in_bin path in
    let entries = ref [] and warnings = ref [] and lineno = ref 0 in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        try
          while true do
            let line = input_line ic in
            incr lineno;
            if String.trim line <> "" then
              match Json.parse line with
              | Error msg ->
                  warnings :=
                    Printf.sprintf "line %d: %s" !lineno msg :: !warnings
              | Ok j -> (
                  match of_json j with
                  | Ok e -> entries := e :: !entries
                  | Error msg ->
                      warnings :=
                        Printf.sprintf "line %d: %s" !lineno msg :: !warnings)
          done
        with End_of_file -> ());
    (List.rev !entries, List.rev !warnings)
  end

(* Last (most recent) entry, optionally restricted to one kind. *)
let last ?kind entries =
  let matches e = match kind with None -> true | Some k -> e.kind = k in
  List.fold_left (fun acc e -> if matches e then Some e else acc) None entries

(* Last two matching entries as (previous, current). *)
let last_two ?kind entries =
  let matches e = match kind with None -> true | Some k -> e.kind = k in
  List.fold_left
    (fun acc e ->
      if not (matches e) then acc
      else match acc with _, cur -> (cur, Some e))
    (None, None) entries

(* ------------------------------------------------------------------ *)
(* Environment plumbing shared by every writer.

   CCCS_LEDGER names the ledger file (default "ledger.jsonl" in the
   working directory); setting it to "off" (or empty) disables recording
   entirely, which tests and throwaway runs use to stay side-effect
   free. *)

let default_path () =
  match Sys.getenv_opt "CCCS_LEDGER" with
  | None | Some "" | Some "off" -> "ledger.jsonl"
  | Some p -> p

(* ------------------------------------------------------------------ *)
(* Git revision without a subprocess: follow .git/HEAD by hand.  Any
   failure (not a repository, detached layouts we don't know, permission
   trouble) degrades to "unknown" — provenance is best-effort. *)

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          try Some (really_input_string ic (in_channel_length ic))
          with End_of_file -> None)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let rec resolve_git_dir dir depth =
  if depth > 3 then None
  else
    let dotgit = Filename.concat dir ".git" in
    if Sys.file_exists dotgit && Sys.is_directory dotgit then Some dotgit
    else
      (* Worktree layout: .git is a file "gitdir: <path>". *)
      match read_file dotgit with
      | Some s when starts_with ~prefix:"gitdir:" s ->
          let p = String.trim (String.sub s 7 (String.length s - 7)) in
          let p = if Filename.is_relative p then Filename.concat dir p else p in
          if Sys.file_exists p then Some p else None
      | _ ->
          let parent = Filename.dirname dir in
          if parent = dir then None else resolve_git_dir parent (depth + 1)

let git_rev ?(dir = ".") () =
  match resolve_git_dir dir 0 with
  | None -> "unknown"
  | Some gitdir -> (
      match read_file (Filename.concat gitdir "HEAD") with
      | None -> "unknown"
      | Some head ->
          let head = String.trim head in
          if not (starts_with ~prefix:"ref: " head) then head
            (* detached HEAD: the hash itself *)
          else begin
            let r = String.sub head 5 (String.length head - 5) in
            match read_file (Filename.concat gitdir r) with
            | Some rev -> String.trim rev
            | None -> (
                (* The ref may only exist packed. *)
                match read_file (Filename.concat gitdir "packed-refs") with
                | None -> "unknown"
                | Some packed ->
                    let rev = ref "unknown" in
                    String.split_on_char '\n' packed
                    |> List.iter (fun line ->
                           match String.index_opt line ' ' with
                           | Some i
                             when String.sub line (i + 1)
                                    (String.length line - i - 1)
                                  = r ->
                               rev := String.sub line 0 i
                           | _ -> ());
                    !rev)
          end)

(* ------------------------------------------------------------------ *)
(* The one way a measuring entry point records a run.  A ledger that
   cannot be written is reported to the caller, never raised: telemetry
   bookkeeping must not fail the measured command itself. *)

let record ~kind ~timestamp ~cores ?jobs ?schemes ?meta rows =
  match Sys.getenv_opt "CCCS_LEDGER" with
  | Some ("off" | "") -> Ok ()
  | _ -> (
      try
        Ok
          (append ~path:(default_path ())
             (make ~kind ~git_rev:(git_rev ()) ~timestamp ~cores ?jobs
                ?schemes ?meta rows))
      with Sys_error msg -> Error msg)
