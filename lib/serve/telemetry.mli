(** Live serving telemetry: lifecycle stamps, per-tenant fairness, SLO
    tracking and OpenMetrics exposition, wired into one object the
    controller drives.

    A [Telemetry.t] owns a {!Nu_obs.Lifecycle} tracker (every request's
    path from arrival to completion, streamed to a record log), a
    {!Nu_obs.Fairness} tracker (per-tenant ECT histograms, shed/admit
    accounting, Jain's index) and a {!Nu_obs.Slo} tracker (rolling-
    window tail quantiles, backlog gauges, threshold breaches). Pass it
    to {!Serve.create} — the controller calls the [on_*] hooks at the
    matching points of each tick and attaches {!observer} to its
    engine stepper.

    Everything is recording-only: no hook reads state the scheduler
    consults, so a serve run with telemetry attached produces a
    bit-identical decision digest (enforced by the [serve-telemetry-k8]
    bench scenario). Telemetry is not part of the checkpoint
    fingerprint either — a journal written with telemetry on replays
    cleanly with it off, and vice versa.

    When [metrics_dir] is set, an OpenMetrics exposition file
    ([metrics.prom]) is published ({!Nu_obs.Store.publish}) every
    [metrics_every] ticks and once at retirement, rendered from the
    live counter registry, histogram registry (when sampling is
    enabled), and the fairness/SLO state. *)

type config = {
  metrics_dir : string option;
      (** Directory for the exposition file; [None] disables it. *)
  metrics_every : int;  (** Write cadence in ticks (default 10). *)
  lifecycle_path : string option;
      (** Record log of lifecycle stamps; [None] keeps only the ring. *)
  p99_target_s : float option;
      (** SLO p99 breach threshold; [None] = never evaluated. *)
  watch : Nu_obs.Watch.config option;
      (** Attach an {!Nu_obs.Watch} watchdog: ECT samples and per-tick
          queue/backlog gauges plus WAL-corruption and supervisor-
          restart counter deltas are fed to it each tick, its alert
          families join the exposition, and its journals (when
          [Watch.config.dir] is set) follow the run. [None] disables
          it. *)
}

val default_config : config
(** Everything off: no exposition, no record log, no threshold.

    The trackers always run at their own defaults: a lifecycle ring of
    4096 stamps, fairness and SLO windows of 50 ticks, and no p99.9,
    queue or backlog thresholds. *)

type t

val create : config -> t
(** Raises [Invalid_argument] when [metrics_every < 1] or
    [metrics_dir = Some ""]. *)

val config : t -> config
val lifecycle : t -> Nu_obs.Lifecycle.t
val fairness : t -> Nu_obs.Fairness.t
val slo : t -> Nu_obs.Slo.t

val watch : t -> Nu_obs.Watch.t option
(** The attached watchdog, when the config carried one. *)

val expo_writes : t -> int
(** Exposition files written so far (also counted in the
    ["telemetry.expo_writes"] named counter). *)

(** {2 Controller hooks}

    Called by {!Serve}; exposed for tests and custom drivers. *)

val on_tick_start : t -> tick:int -> now_s:float -> unit
(** Set the tick context later stamps inherit. Call first each tick. *)

val on_arrival : t -> Request.t -> unit
(** Stamp [Arrived]. Fresh arrivals only — a deferred request was
    already stamped when first seen. *)

val on_admission : t -> Request.t -> Admission.outcome -> unit
(** Stamp the admission decision and account it to the tenant. *)

val on_drain : t -> Request.t -> wait_ticks:int -> unit
(** Stamp [Submitted] with the queueing delay in ticks. *)

val on_tick_end : t -> tick:int -> queue:int -> backlog:int -> unit
(** Record gauges, advance the fairness/SLO window clocks, feed the
    watchdog its per-tick observation, and write the exposition file
    on the [metrics_every] cadence. *)

val on_retire : t -> unit
(** Final exposition write, watchdog-journal close and
    lifecycle-stream close. *)

val observer : t -> Engine.observation -> unit
(** Engine-side progress: pass [observer t] to
    {!Engine.Stepper.create} (done by {!Serve.create} when telemetry
    is attached). Maps round executions/aborts, retries and
    completions into lifecycle stamps and fairness/SLO samples. *)

val render : t -> string
(** The OpenMetrics document {!write_expo} would publish now. *)

val write_expo : t -> unit
(** Write the exposition file immediately (no-op without
    [metrics_dir]). *)

val to_json : t -> Nu_obs.Json.t
(** Summary block for {!Run_report}: stamp counts, exposition writes,
    fairness and SLO state. *)
