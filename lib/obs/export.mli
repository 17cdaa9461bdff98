(** Trace exporters: JSONL span logs and Chrome [trace_event] files.

    Two machine-readable formats over {!Trace.event} streams:

    - JSONL — one JSON object per line carrying the raw event (phase,
      name, nanosecond timestamp, depth, attributes); trivially greppable
      and streamable.
    - Chrome trace-event JSON — the ["traceEvents"] duration-event format
      loadable in [chrome://tracing] and {{:https://ui.perfetto.dev}
      Perfetto}. Timestamps are rebased to the first event and converted
      to microseconds, as the format expects. *)

val event_to_json : Trace.event -> Json.t
(** Raw JSONL encoding of one event. *)

val jsonl_of_events : Trace.event list -> string
(** One event per line, each line a JSON object, trailing newline. *)

val chrome_of_events : ?pid:int -> Trace.event list -> Json.t
(** [{"traceEvents": [...], "displayTimeUnit": "ms"}]. Span begin/end
    map to ["B"]/["E"] duration events, instants to ["i"]; attributes
    land in ["args"]. [pid] defaults to 1.

    Instants named ["lifecycle"] carrying an [id : Int] and a
    [flow : Str] attribute (["s"]/["t"]/["f"], as stamped by
    {!Lifecycle}) are rendered as Chrome {e flow events} instead —
    [cat "lifecycle"], name ["request"], shared [id] — so one request's
    stamps are drawn as linked arrows across the span tree. *)

val write_chrome : string -> Trace.event list -> unit
(** Write {!chrome_of_events} to the named file. *)
