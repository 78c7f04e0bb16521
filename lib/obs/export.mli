(** Exporters: metrics snapshots as a JSON object, event streams as
    Chrome trace-event / Perfetto JSON. *)

(** Histogram summary + buckets as a JSON object. *)
val hist_json : Histogram.t -> Json.t

(** One object: [{"counters":{..},"gauges":{..},"histograms":{..}}], with
    [extra] fields (schema tag, workload name, ...) prepended. *)
val json_of_snapshot :
  ?extra:(string * Json.t) list ->
  (string * Metrics.snapshot_item) list ->
  Json.t

(** [chrome_trace tracks] — each [(name, events)] track becomes one named
    process: spans on tid 1, block deliveries as duration slices on tid 2,
    other fetch events as instants on tid 3, one modeled cycle = 1 us.
    The result loads in ui.perfetto.dev / chrome://tracing. *)
val chrome_trace : (string * Event.t array) list -> Json.t

val write_file : string -> string -> unit
