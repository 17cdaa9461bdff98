(** Machine-readable run reports.

    Serialises a complete {!Engine.run_result} — summary metrics,
    per-event results, the per-round audit log and (optionally) an
    observability counter snapshot — as one JSON document, so every
    experiment becomes an inspectable artifact that downstream tooling
    can diff, plot or regression-check without re-running the
    simulation. *)

val to_json :
  ?counters:Nu_obs.Counters.snapshot ->
  ?histograms:(string * Nu_obs.Histogram.t) list ->
  ?series:Nu_obs.Series.t ->
  ?profile:Nu_obs.Profile.t ->
  ?telemetry:Nu_obs.Json.t ->
  ?alerts:Nu_obs.Json.t ->
  Engine.run_result ->
  Nu_obs.Json.t
(** The full report: policy, summary, events (event-id order), round
    count, round log and, when given, the counter snapshot (typically a
    {!Nu_obs.Counters.diff} scoped to the run). [histograms] (typically
    {!Nu_obs.Histogram.Registry.snapshot}) adds a ["histograms"] object
    keyed by metric name; [series] (the run's per-round gauge series)
    adds a ["series"] block; [profile] (a {!Nu_obs.Profile.of_events}
    span tree) adds a ["profile"] block; [telemetry] (a serving run's
    [Nu_serve.Telemetry.to_json] — passed pre-rendered, since this
    library sits below [Nu_serve]) adds a ["telemetry"] block;
    [alerts] (a watchdog run's {!Nu_obs.Watch.report_json} — alert
    counts by detector/severity, first/last breach ticks, per-scope
    health timelines) adds an ["alerts"] incident block. *)
