(** Per-controller serving configuration: the knobs every shard
    controller of a {!Shard_fabric} shares, and their JSON form (part of
    the checkpoint fingerprint). {!Serve} re-exports all of it. *)

type churn_spec = {
  churn_seed : int;
  churn_target : float;  (** Fabric-utilisation refill setpoint. *)
  churn_max_per_round : int;
  churn_first_id : int;
}
(** Background churn for serving runs. Unlike the batch scenario's
    churn (one PRNG threaded across draws), each flow here is drawn
    from a fresh stream keyed by flow id — a pure function of [id] —
    so churn state never needs checkpointing beyond the engine's
    next-churn-id cursor. *)

type config = {
  policy : Policy.t;  (** Scheduling policy; flow-level is batch-only. *)
  engine_seed : int;
  admission_capacity : int;
  admission_policy : Admission.policy;
  drain_per_tick : int;  (** Max requests entering the engine per tick. *)
  steps_per_tick : int;  (** Max service rounds executed per tick. *)
  tick_dt_s : float;  (** Simulated seconds per tick. *)
  co_max_cost_mbit : float;  (** Co-scheduling budget (0 = off). *)
  churn : churn_spec option;
  domains : int;
      (** Probe fan-out width handed to the engine (see
          {!Nu_sched.Engine.run}). Decisions are bit-identical at any
          width, so this is an execution knob, not a semantic one — it
          is deliberately excluded from the checkpoint fingerprint,
          and a journal may be replayed at a different width than the
          one it was recorded under. *)
}

val default_config : Policy.t -> config
(** seed 42, capacity 64, Block admission, drain 8, steps 4, dt 50 ms,
    co-scheduling off, no churn, 1 domain. *)

val config_to_json : config -> Nu_obs.Json.t
val spec_to_json : Source.spec -> Nu_obs.Json.t

val fingerprint_matches : Nu_obs.Json.t -> Nu_obs.Json.t -> bool
(** [fingerprint_matches stored expected]: printed-form equality —
    sound because printing is canonical for this Json library even
    where parsing widens types. Fields of retired knobs are dropped
    from [stored] first when they hold a value that never moved a
    decision: the config's ["estimate_cache"] flag (any value) and the
    coordinator's ["max_cost_mbit"] cost cap at [0.0] (off). *)

val validate_config : config -> unit
(** Raises [Invalid_argument] on out-of-range knobs or a batch-only
    policy. {!Shard_fabric.validate_config} calls this on the shared
    base configuration. *)

val engine_churn :
  host_count:int -> churn_spec option -> Nu_sched.Engine.churn option
(** Lower a serving churn spec to the engine's churn record (each flow
    drawn from a fresh stream keyed by its id). The fabric hands every
    shard the identical flow generator while zeroing the refill
    setpoint on all but the churn-owning shard. *)
