(** OpenMetrics / Prometheus text-format exposition.

    {!render} walks a counter snapshot, histogram snapshots and the
    {!Fairness} / {!Slo} trackers into a single self-terminated text
    document ([# EOF] last), which {!Store.publish} replaces
    atomically so a scraper never reads a torn file; and {!validate}
    parses a document back, which is what the CI telemetry-smoke job
    runs against the scrape file.

    Naming scheme: every metric is prefixed [nu_]; internal names are
    mangled to [[a-z0-9_]] (dots become underscores); a trailing [_s]
    becomes the conventional [_seconds] unit suffix; counters carry
    [_total]. Histograms render as cumulative [le]-labelled bucket
    series plus [_sum]/[_count]; per-tenant ECT renders as a [summary]
    family [nu_tenant_ect_seconds] with [tenant] and [quantile]
    labels. *)

val render :
  ?counters:Counters.snapshot ->
  ?histograms:(string * Histogram.t) list ->
  ?fairness:Fairness.t ->
  ?slo:Slo.t ->
  ?watch:Watch.t ->
  unit ->
  string
(** Render the given sources into one exposition document. All sources
    are optional; the result always ends with [# EOF]. A [watch]
    source adds the alerting families: [nu_alerts_total{severity}],
    [nu_alerts_detector_total{detector}], [nu_alerts_dropped_total],
    [nu_health_state{scope="global"}] and
    [nu_tenant_health_state{tenant}] (gauge value is
    {!Health.state_rank}: 0 ok, 1 warn, 2 critical, 3 recovering). *)

val validate : string -> (unit, string) result
(** Check that a document is well-formed exposition text: every sample
    line parses (name, optional labels, float value), references a
    family declared by a preceding [# TYPE] line (directly or via a
    [_total]/[_bucket]/[_sum]/[_count] series suffix), and the document
    ends with exactly one [# EOF]. Errors carry a line number. *)
