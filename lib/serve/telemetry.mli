(** Live serving telemetry: lifecycle stamps, per-tenant fairness, the
    optional watchdog and OpenMetrics exposition, wired into one object
    the controller drives.

    A [Telemetry.t] owns a {!Nu_obs.Lifecycle} tracker (every request's
    path from arrival to completion, streamed to a record log) and a
    {!Nu_obs.Fairness} fold (per-tenant ECT histograms, admit/drain
    accounting, Jain's index). Every tenant-bearing stamp goes to both
    through one helper, so folding the record log through
    {!Nu_obs.Fairness.observe} ([experiments telemetry]) rebuilds the
    live fairness state exactly. A stamp with no attribution (an event
    the controller never saw arrive, as after a mid-flight restore) is
    logged with tenant [""] and accounted to ["unknown"]. Pass it to
    {!Serve.create} — the controller calls the [on_*] hooks at the
    matching points of each tick and attaches {!observer} to its
    engine stepper.

    Everything is recording-only: no hook reads state the scheduler
    consults, so a serve run with telemetry attached produces a
    bit-identical decision digest (enforced by the [serve-telemetry-k8]
    bench scenario). Telemetry is not part of the checkpoint
    fingerprint either — a journal written with telemetry on replays
    cleanly with it off, and vice versa.

    When [metrics_dir] is set, {!create} creates it (with any missing
    parents), the lifecycle stamps stream to the record log
    [metrics_dir/lifecycle.jsonl], and an OpenMetrics exposition file
    ([metrics.prom]) is published ({!Nu_obs.Store.publish}) every
    [metrics_every] ticks and once at retirement, rendered from the
    live counter registry, histogram registry (when sampling is
    enabled), the fairness fold and the watchdog. *)

type config = {
  metrics_dir : string option;
      (** Directory for the exposition file and the lifecycle record
          log; [None] disables both. *)
  metrics_every : int;  (** Write cadence in ticks (default 10). *)
  watch : Nu_obs.Watch.config option;
      (** Attach an {!Nu_obs.Watch} watchdog: ECT samples and per-tick
          queue/backlog gauges plus WAL-corruption and supervisor-
          restart counter deltas are fed to it each tick, its alert
          families join the exposition, and its journals (when
          [Watch.config.dir] is set) follow the run. [None] disables
          it. *)
}

val default_config : config
(** Everything off: no exposition, no record log, no watchdog. The
    watchdog's rolling windows are the only windowed readouts, and its
    alerts the only alerts. *)

type t

val create : config -> t
(** Raises [Invalid_argument] when [metrics_every < 1] or
    [metrics_dir = Some ""]. *)

val lifecycle : t -> Nu_obs.Lifecycle.t

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
(** Stamp the admission decision, [Admitted] or [Deferred]; [Admitted]
    counts toward the tenant's fairness. *)

val on_drain : t -> Request.t -> wait_ticks:int -> unit
(** Stamp [Submitted] with the queueing delay in ticks (the tenant's
    drained count). *)

val on_tick_end : t -> tick:int -> queue:int -> backlog:int -> unit
(** Feed the watchdog its per-tick observation (queue and backlog
    gauges, counter deltas), and write the exposition file on the
    [metrics_every] cadence. *)

val on_retire : t -> unit
(** Final exposition write, watchdog-journal close and
    lifecycle-stream close. *)

val observer : t -> Engine.observation -> unit
(** Engine-side progress: pass [observer t] to
    {!Engine.Stepper.create} (done by {!Serve.create} when telemetry
    is attached). Maps round executions/aborts, retries and
    completions into lifecycle stamps; completions also reach the
    fairness fold and the watchdog. *)

val to_json : t -> Nu_obs.Json.t
(** Summary block for {!Run_report}: stamp counts, exposition writes,
    the fairness state and, with a watchdog, its report. *)
