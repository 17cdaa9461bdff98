(** [nu_watch]: deterministic streaming watchdog over the serving
    telemetry.

    The watcher consumes one {!obs} record per controller tick — the
    completions (tenant, ECT) observed that tick, the admission queue
    depth, the engine backlog, and the per-tick deltas of the WAL
    corrupt-frame and supervisor-restart counters — and runs a bank of
    streaming detectors over the stream:

    - EWMA + CUSUM change-point on the rolling global tail ECT (p99),
    - EWMA + CUSUM change-point on the admission queue depth,
    - per-tenant EWMA + CUSUM change-point on each tenant's rolling
      tail ECT,
    - OLS linear-regression backlog-slope divergence,
    - Jain fairness-index collapse (below a threshold for K consecutive
      windows),
    - windowed WAL corrupt-frame-rate and supervisor-restart-rate
      budgets.

    The bank is fixed; no run tunes it:

    - every CUSUM uses {!Detector.Cusum}'s fixed parameters;
    - the ECT and fairness windows rotate every 20 ticks, and a rolling
      p99 reads the current window merged with the previous one;
    - the backlog slope is regressed over the last 20 ticks and fires
      above 0.5 events per tick;
    - Jain's index over the per-tenant mean ECTs of a window (two
      tenants or more) collapses below 0.6, and fires after 2
      consecutive collapsed windows;
    - the corrupt-frame and restart budgets are 0 per 20-tick window,
      so one corrupt frame or one restart fires;
    - every scope's health machine runs at {!Health}'s fixed thresholds;
    - the alert ring retains the newest 512 alerts.

    Detector outcomes drive a {!Health} state machine per scope (global
    plus one per tenant); every state transition — and every CUSUM
    rising edge — emits a structured {!alert} into a bounded in-memory
    ring and, when a journal directory is configured, the {!Store}
    record log [alerts.jsonl]. An FNV-1a digest folds over the alert
    records (JSON text, one newline each) as they are emitted.

    Everything is a pure function of the observation stream: no wall
    clock, no RNG, no dependence on map iteration order (tenants are
    always visited in sorted name order). The observation stream itself
    is journaled to the record log [watch.jsonl], and when the first
    observation of a run arrives at a tick K > 0 (a restore-and-replay run) the watcher
    transparently replays the journaled prefix below K to rebuild its
    state, then rewrites both journals — so [serve -> crash -> replay]
    reproduces the uninterrupted run's alert sequence and digest bit
    for bit. The watcher reads nothing the scheduler consults:
    attaching it cannot change a decision digest. *)

type severity = Info | Warning | Critical

type config = {
  dir : string option;
      (** journal directory (record logs [watch.jsonl] and
          [alerts.jsonl]); [None] keeps the watcher purely in-memory *)
}

val default_config : config
(** [dir = None]. *)

type alert = {
  a_tick : int;
  a_scope : string;  (** ["global"] or a tenant name *)
  a_detector : string;
  a_severity : severity;
  a_state : Health.state;  (** scope health after this alert *)
  a_evidence : Json.t;  (** detector snapshot at emission *)
}

type obs = {
  o_tick : int;
  o_queue : int;
  o_backlog : int;
  o_ects : (string * float) list;  (** (tenant, ect_s), arrival order *)
  o_corrupt_d : int;  (** WAL corrupt-frame counter delta this tick *)
  o_restarts_d : int;  (** supervisor-restart counter delta this tick *)
}

type t

val create : config -> t

(* ------------------------------------------------------------------ *)
(* Live feeding (Serve_telemetry path) *)

val observe_ect : t -> tenant:string -> ect_s:float -> unit
(** Accumulate one completion for the in-progress tick. *)

val on_tick :
  t -> tick:int -> queue:int -> backlog:int -> corrupt_d:int -> restarts_d:int -> unit
(** Close the tick: build the {!obs} record from the accumulated
    completions and {!ingest} it. *)

val ingest : t -> obs -> unit
(** Journal (when configured) and evaluate one observation. The first
    call of a run with [o_tick > 0] triggers the resume-from-journal
    path described above. *)

val close : t -> unit
(** Flush and close the journals (idempotent). *)

(* ------------------------------------------------------------------ *)
(* Readouts *)

val alert_total : t -> int
(** Exact total emitted, including ring evictions. *)

val critical_total : t -> int
val dropped : t -> int
val alert_digest : t -> string
(** FNV-1a 64-bit hex digest over the emitted alert records. *)

val by_detector : t -> (string * int) list
(** Alert counts keyed by detector, sorted by name. *)

val by_severity : t -> (string * int) list
val global_state : t -> Health.state
val tenant_states : t -> (string * Health.state) list
(** Sorted by tenant name. *)

(* ------------------------------------------------------------------ *)
(* Rendering *)

val report_json : t -> Json.t
(** The [alerts] block for {!Run_report.to_json}: totals, counts by
    detector/severity, first/last breach ticks, per-scope health
    timelines. *)

val alerts_json : t -> Json.t
(** Full [alerts.json] artifact (retained alerts + digest + counts). *)

val health_json : t -> Json.t
(** [health.json] artifact (per-scope state + transition timeline). *)

(* ------------------------------------------------------------------ *)
(* Offline evaluation *)

type journal = {
  j_obs : obs list;
  j_corrupt : Store.corrupt_frame list;
      (** damage skipped by the reader (see {!Store.read_report}) *)
}

val read_journal : string -> (journal, string) result
(** Read a [watch.jsonl] record log. Damage is skipped and reported in
    [j_corrupt], never raised; a record that is neither the header nor
    an observation counts as damage. A header that carries a [config]
    object (as older files do) loads; the object is ignored. *)

val read_alerts_digest :
  string -> (string * int * Store.corrupt_frame list, string) result
(** Recompute the FNV-1a digest and record count of an [alerts.jsonl]
    record log, with the damage the reader skipped. *)
