(** Trace exporter: Chrome [trace_event] files.

    The Chrome trace-event JSON is the ["traceEvents"] duration-event
    format loadable in [chrome://tracing] and
    {{:https://ui.perfetto.dev} Perfetto}. Timestamps are rebased to the
    first event and converted to microseconds, as the format expects. *)

val write_chrome : string -> Trace.event list -> unit
(** Write [{"traceEvents": [...], "displayTimeUnit": "ms"}] to the named
    file. Span begin/end map to ["B"]/["E"] duration events, instants to
    ["i"]; attributes land in ["args"]; every event carries pid 1.

    Instants named ["lifecycle"] carrying an [id : Int] and a
    [flow : Str] attribute (["s"]/["t"]/["f"], as stamped by
    {!Lifecycle}) are rendered as Chrome {e flow events} instead —
    [cat "lifecycle"], name ["request"], shared [id] — so one request's
    stamps are drawn as linked arrows across the span tree. *)
