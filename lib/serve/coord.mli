(** Global coordinator for cross-shard migration sets — the second
    level of the two-level planner.

    Shard-local rounds whose make-room migrations stay inside the
    owning shard commit locally; the rest escalate here. Each
    escalated event commits inside a {!Nu_net.Net_state} transaction
    on the shared fabric: Prepare is journaled, the engine's
    already-probed plan is applied and committed, and the Commit is
    journaled with its participants (homes of the migrated flows plus
    the event's own home). Every escalation commits, so the fabric
    keeps one global order of decisions. Failed plan items are
    committed and recorded exactly as the single-controller engine
    commits them.

    Deterministic: own virtual clock floored by the tick wall, and an
    ordered decisions journal ({!Nu_obs.Store} record log, one JSON
    decision per record) whose running FNV-1a digest — over each
    record and a newline — folds into the fabric digest. Recovery
    never reads the journal back — the whole coordinator freezes into
    the fabric checkpoint and WAL replay regenerates later entries. *)

type t

val create : ?sink:Nu_obs.Store.writer -> seed:int -> unit -> t
(** [sink] receives the decisions journal (one JSON object per record,
    flushed per entry). The digest is maintained with or without it.
    The coordinator bills time with {!Exec_model}, as every shard's
    stepper does. *)

val set_sink : t -> Nu_obs.Store.writer option -> unit
val close : t -> unit

val commit_escalated :
  t ->
  net:Net_state.t ->
  tick:int ->
  now_floor_s:float ->
  home:int ->
  event:Event.t ->
  shard_of_flow:(int -> int option) ->
  txn_open:bool ->
  attempt:(unit -> Planner.t) ->
  on_commit:(home:int -> result:Engine.event_result -> Planner.t -> unit) ->
  unit
(** Inline commit of a wave escalation, called from the fabric's
    {!Nu_sched.Engine.Stepper.step_group} [escalate] hook with the
    hook's [event], [txn_open] and [attempt]. The prepare entry is
    journaled, [attempt] applies the engine's already-computed plan
    inside a fabric transaction ([txn_open] tells whether the engine
    left one open), the transaction commits and the commit entry is
    journaled. [shard_of_flow] maps a migrated flow id to its current
    home shard ([None] if the flow has left the network). [on_commit]
    then fires with the result — the fabric uses it to register churn
    departures on the home shard and to surface the completion to
    telemetry. Nothing is planned twice. *)

val moved_flow_ids : Planner.t -> int list
(** Flow ids the plan's make-room moves migrated — the migration set
    the escalate hook and the participant computation share. *)

val digest : t -> string
(** Running FNV-1a over the journal entries, 16 hex digits. *)

val entries : t -> int

val results : t -> Engine.event_result list
(** Completion results, oldest-first. *)

val now_s : t -> float

(** {2 Freeze / thaw} *)

type frozen = {
  fz_now : float;
  fz_results : Engine.event_result list;  (** Newest-first. *)
  fz_entries : int;
  fz_digest : int64;
  fz_rng : int64;
      (** The initial state of [seed]'s PRNG, which nothing draws from;
          kept for checkpoint-byte compatibility. *)
}

val freeze : t -> frozen

val thaw : frozen -> t
(** No sink attached (see {!set_sink}). *)

val frozen_to_json : frozen -> Nu_obs.Json.t
(** Still writes the retired retry state at its only values,
    ["queue":[]] and ["units":0], so checkpoint bytes do not move. *)

val frozen_of_json : Nu_obs.Json.t -> (frozen, string) result
(** [Error] naming the coordinator's retry state when ["queue"] is
    non-empty or ["units"] non-zero: such a checkpoint came from a
    coordinator that could veto and retry, and this one has no queue
    to restore it into. *)
