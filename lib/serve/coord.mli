(** Global coordinator for cross-shard migration sets — the second
    level of the two-level planner.

    Shard-local rounds whose make-room migrations stay inside the
    owning shard commit locally; the rest escalate here. Each
    escalated event commits inside a {!Nu_net.Net_state} transaction
    on the shared fabric, two-phase: Prepare is journaled, every
    participant shard (homes of the migrated flows plus the event's
    own home) votes — a participant vetoes when its backlog exceeds
    [veto_backlog] — and the transaction commits only on unanimous
    yes, otherwise it rolls back and the event retries, re-planned
    here, degrading after [max_attempts] to a scan-first plan outside
    any transaction. The inline commit ({!commit_escalated}) and the
    retry pass ({!attempt_due}) share these steps. Failed plan items
    are committed and recorded exactly as the single-controller engine
    commits them — aborts exist for fairness (vetoes), not
    feasibility.

    Deterministic: own PRNG, own virtual clock floored by the tick
    wall, and an ordered decisions journal ({!Nu_obs.Store} record log,
    one JSON decision per record) whose running FNV-1a digest — over
    each record and a newline — folds into the fabric digest. Recovery never reads the
    journal back — the whole coordinator freezes into the fabric
    checkpoint and WAL replay regenerates later entries. *)

type config = {
  veto_backlog : int;
      (** A participant vetoes while its backlog exceeds this. *)
  max_attempts : int;  (** Attempts before degrading. *)
}

val default_config : config
(** veto 512, 3 attempts. An aborted event retries on the next tick. *)

val validate_config : config -> unit
val config_to_json : config -> Nu_obs.Json.t

type t

val create : ?sink:Nu_obs.Store.writer -> seed:int -> config -> t
(** [sink] receives the decisions journal (one JSON object per record,
    flushed per entry). The digest is maintained with or without it.
    The coordinator plans with {!Planner.default_config} and bills time
    with {!Exec_model}, as every shard's stepper does. *)

val set_sink : t -> Nu_obs.Store.writer option -> unit
val close : t -> unit

val attempt_due :
  t ->
  net:Net_state.t ->
  tick:int ->
  now_floor_s:float ->
  shard_of_flow:(int -> int option) ->
  backlogs:int array ->
  on_commit:
    (home:int ->
    result:Engine.event_result ->
    degraded:bool ->
    Planner.t ->
    unit) ->
  unit
(** Run one coordinator pass: every queued event whose retry delay has
    elapsed gets a two-phase attempt. [shard_of_flow] maps a migrated
    flow id to its current home shard ([None] if the flow has left the
    network). [on_commit] fires once per terminating event (commit or
    degrade) with the accumulated result — the fabric uses it to
    register churn departures on the home shard and to surface the
    completion to telemetry. *)

val commit_escalated :
  t ->
  net:Net_state.t ->
  tick:int ->
  now_floor_s:float ->
  home:int ->
  event:Event.t ->
  moved:int list ->
  shard_of_flow:(int -> int option) ->
  backlogs:int array ->
  txn_open:bool ->
  attempt:(unit -> Planner.t) ->
  on_commit:
    (home:int ->
    result:Engine.event_result ->
    degraded:bool ->
    Planner.t ->
    unit) ->
  unit
(** Inline two-phase commit of a wave escalation, called from the
    fabric's {!Nu_sched.Engine.Stepper.step_group} [escalate] hook with
    the hook's [event], [txn_open] and [attempt]. The prepare entry is
    journaled and the participants (homes of [moved], plus [home]) vote
    on the announced migration set; on unanimous yes, [attempt] applies
    the engine's already-computed plan inside a fabric transaction
    ([txn_open] tells whether the engine left one open) and the commit
    is journaled and finished. On a veto an open transaction rolls
    back, [attempt] is not called, and the event joins the retry queue
    for {!attempt_due}. Nothing is planned twice on the commit path. *)

val moved_flow_ids : Planner.t -> int list
(** Flow ids the plan's make-room moves migrated — the migration set
    the escalate hook and the participant computation share. *)

val digest : t -> string
(** Running FNV-1a over the journal entries, 16 hex digits. *)

val entries : t -> int
val pending_count : t -> int

val results : t -> Engine.event_result list
(** Completion results, oldest-first. *)

val units : t -> int
val now_s : t -> float

(** {2 Freeze / thaw} *)

type frozen = {
  fz_queue : (Event.t * int * int * int * int) list;
      (** event, home, enq_tick, attempts, not_before. *)
  fz_now : float;
  fz_units : int;
  fz_results : Engine.event_result list;  (** Newest-first. *)
  fz_entries : int;
  fz_digest : int64;
  fz_rng : int64;
      (** The initial state of [seed]'s PRNG, which nothing draws from;
          kept for checkpoint-byte compatibility. *)
}

val freeze : t -> frozen

val thaw : config -> frozen -> t
(** No sink attached (see {!set_sink}). *)

val frozen_to_json : frozen -> Nu_obs.Json.t
val frozen_of_json : Nu_obs.Json.t -> (frozen, string) result
