(** Discrete-event simulation of an update queue under a policy.

    The service loop mirrors the paper's setting: update events arrive
    into a queue; each round the policy picks the event (or, for P-LMTF,
    the batch) to execute next; planning consumes virtual plan time,
    execution consumes virtual execution time; costs are recomputed
    against the *live* network state each round, because earlier
    executions change later costs (§IV-A). Placed flows persist for the
    whole run — the paper keeps background traffic static, and the update
    horizon is short relative to flow lifetimes (DESIGN.md §3).

    The run mutates the supplied network state (events get installed);
    pass {!Nu_net.Net_state.copy} of a prepared state to compare policies
    on identical initial conditions. *)

type event_result = {
  event_id : int;
  arrival_s : float;
  start_s : float;  (** Execution start (after its round's plan time). *)
  completion_s : float;
  cost_mbit : float;  (** Cost(U) actually paid at execution. *)
  plan_work_units : int;  (** Planner probes spent on the executed plan. *)
  failed_items : int;  (** Work items that stayed unsatisfiable. *)
  co_scheduled : bool;  (** Ran alongside a P-LMTF head event. *)
}

val ect : event_result -> float
(** Event completion time: [completion_s - arrival_s]. *)

val queuing_delay : event_result -> float
(** [start_s - arrival_s]. *)

type round_info = {
  round_start_s : float;  (** Decision instant (after background sync). *)
  executed : int list;  (** Event ids of the round's batch, head first. *)
  co_count : int;  (** How many of them were co-scheduled. *)
  round_units : int;  (** Planner probes paid this round. *)
  fabric_utilization : float;  (** Probe at the decision instant. *)
}
(** One service round of an event-level policy — the run's audit trail.
    Lets experiments observe the utilisation trajectory (the paper's
    "utilization fluctuates between 50% and 70%") and the batch sizes
    P-LMTF achieves. Flow-level runs, whose rounds are individual flows,
    do not produce a log. *)

(** Progress callbacks emitted by a {!Stepper} to an attached observer
    (the serving telemetry layer). Emitted after the corresponding
    state mutation, carrying copies of already-computed values only, so
    an observer can record but never perturb a decision — attaching one
    leaves the run bit-identical. *)
type observation =
  | Round_executed of {
      round : int;  (** 0-based index of the round just finished. *)
      start_s : float;  (** Decision instant (simulated). *)
      executed : int list;  (** Event ids of the batch, head first. *)
      co_ids : int list;  (** The co-scheduled subset. *)
      degraded : bool;  (** Terminal best-effort round after retries. *)
    }
  | Round_aborted of {
      round : int;  (** Index the round would have had. *)
      start_s : float;
      fault_s : float;  (** Fault instant that landed mid-flight. *)
      batch : int list;  (** Event ids routed into retry/degrade. *)
    }
  | Event_completed of { result : event_result; degraded : bool }
  | Event_retry of { event_id : int; ready_s : float }
      (** Aborted event held until [ready_s] (bounded backoff). *)
  | Round_escalated of { round : int; start_s : float; event_id : int }
      (** A {!Stepper.step_group} wave round whose winner was claimed by
          the caller's escalation predicate for the global coordinator:
          the event left the shard's queue without executing there. *)

type run_result = {
  policy : Policy.t;
  events : event_result array;  (** Sorted by event id. *)
  rounds : int;  (** Service rounds executed. *)
  rounds_log : round_info list;
      (** Chronological; empty for flow-level runs. *)
  total_plan_units : int;
      (** Every planner probe across the run: estimates, co-scheduling
          attempts and executed plans. *)
  total_plan_time_s : float;  (** [total_plan_units] x unit cost. *)
  total_cost_mbit : float;
  makespan_s : float;  (** Completion of the last event. *)
  final_fabric_utilization : float;
  planning_wall_s : float;  (** Real CPU seconds spent in the planner. *)
}

type churn = {
  make_flow : id:int -> Flow_record.t;
      (** Marginals of fresh background flows (endpoints included). *)
  target_utilization : float;  (** Fabric-utilisation refill setpoint. *)
  max_placements_per_round : int;  (** Caps the per-round refill work. *)
  first_id : int;  (** Ids for churn flows; must not collide. *)
}
(** Background dynamics. When enabled, every placed flow expires
    [duration_s] after it is installed (flows present at t=0 expire at
    their remaining duration), and at each service round the engine
    readmits fresh flows until the fabric utilisation recovers the
    setpoint. This is the "network traffic dynamics" of §IV-A that makes
    a waiting event's cost drift between rounds — the fluctuation LMTF
    exploits. Without churn the background is static (§V-D). *)

val series_columns : string list
(** Gauge names sampled per service round, in column order: [round],
    [queue_len], [retry_backlog], [active_flows],
    [mean_fabric_utilization], [max_link_utilization]. *)

val make_series : ?capacity:int -> unit -> Nu_obs.Series.t
(** Fresh bounded series with {!series_columns}, ready to pass as
    {!run}'s [series]. *)

val run :
  ?exec:Exec_model.t ->
  ?config:Planner.config ->
  ?rng:Prng.t ->
  ?seed:int ->
  ?churn:churn ->
  ?co_max_cost_mbit:float ->
  ?injector:Nu_fault.Injector.t ->
  ?series:Nu_obs.Series.t ->
  ?domains:int ->
  net:Net_state.t ->
  events:Event.t list ->
  Policy.t ->
  run_result
(** Simulate the queue to completion. [events] need not be sorted. [rng]
    (or [seed], default 7; [rng] wins) drives LMTF/P-LMTF sampling and
    churn — given equal seeds, runs are exactly reproducible.
    [domains] (default 1) sets the candidate-probe fan-out width: with
    [domains > 1] each round's candidate probes are evaluated in
    parallel on that many worker domains ({!Probe_pool}), with
    bit-identical decisions, digests and counter totals at any width —
    only the planning wall clock changes. Random-fit planning consumes
    PRNG draws inside probes and therefore always runs sequentially.
    Raises [Invalid_argument] when [domains < 1].
    [co_max_cost_mbit] (default 0) bounds opportunistic updating: a
    candidate is co-scheduled only when a scan-first plan alongside the
    in-flight batch fits within that migration budget — i.e. the
    candidate's flows can be accommodated in the residual capacity
    without displacing anything (§IV-C's "can be updated with the first
    event together"). Raises [Invalid_argument] on an invalid
    policy.

    [injector] attaches a fault schedule ({!Nu_fault.Injector}). While
    faults remain pending, each event-level round runs inside a
    {!Nu_net.Net_state} transaction: a fault whose instant falls before
    the round's head event completes aborts the round — the network
    rolls back to the round's start, the fault strikes the pre-round
    state, and every batch event goes through the injector's bounded
    retry policy (deterministic exponential backoff in simulated time,
    then a terminal best-effort scan-first round that reports
    unsatisfiable items as failed instead of dropping the event). After
    every fault application and every completed round the injector's
    invariant checker runs; violations land in the recovery log. An
    absent injector — or one whose schedule is empty — leaves the run
    bit-identical to a fault-free run. Flow-level runs apply due faults
    at item boundaries only (no per-item transactions, so no aborts or
    retries).

    [series] attaches a per-round gauge time-series ({!series_columns};
    build one with {!make_series}): every service round — event-level,
    degraded, and flow-level (whose rounds are individual flows, with a
    [retry_backlog] of 0) — appends one row sampled at the decision
    instant. Sampling only reads the network state, so an attached
    series leaves every scheduling decision bit-identical; when absent
    the per-round cost is one pattern match. Independently, when
    {!Nu_obs.Histogram.Registry} sampling is enabled, the run records
    each event's service time and queuing delay into the
    [engine.event_service_s] / [engine.event_queuing_s] histograms. *)

(** {2 Incremental stepping}

    The same event-level service loop, one round at a time. A stepper
    owns the per-run context ([run] is itself implemented as
    create-then-step-to-idle, so the two are bit-identical given the
    same inputs); between rounds the owner may submit new arrivals,
    freeze the stepper into a serialisable checkpoint, or read
    progress. This is the substrate of the online controller
    ({!Nu_serve}). *)

module Stepper : sig
  type t

  val create :
    ?exec:Exec_model.t ->
    ?config:Planner.config ->
    ?rng:Prng.t ->
    ?seed:int ->
    ?churn:churn ->
    ?co_max_cost_mbit:float ->
    ?injector:Nu_fault.Injector.t ->
    ?series:Nu_obs.Series.t ->
    ?domains:int ->
    ?init_expiry:bool ->
    ?observer:(observation -> unit) ->
    ?events:Event.t list ->
    net:Net_state.t ->
    Policy.t ->
    t
  (** Same optional knobs (and defaults) as {!run}. [events] (default
      []) seeds the arrival queue. [observer] receives an
      {!observation} after each round and completion — recording only,
      never decision-relevant. [init_expiry] (default true) registers
      churn departures for the flows already placed in [net]; a sharded
      fabric passes [false] for every shard but the one that owns the
      background churn, so the shared pre-placed flows are expired
      exactly once. Raises [Invalid_argument] on an invalid policy, or
      on a flow-level policy — those are batch-only. *)

  val set_observer : t -> (observation -> unit) option -> unit
  (** Attach or detach the progress observer. *)

  val submit : t -> Event.t list -> unit
  (** Merge new arrivals (any order) into the arrival queue at their
      arrival rank. Events whose [arrival_s] is already due enter the
      service queue immediately. Submitting every event up front and
      stepping to exhaustion is bit-identical to {!run}. *)

  val step : t -> [ `Stepped | `Idle ]
  (** Execute one service round (including any leading idle-time jump
      to the next arrival or retry instant): the one-stepper wave of
      {!step_group}, with no pool and no escalation hooks. Nothing runs
      between its probes and its commit, so the winner always replays
      its probe plan — FIFO included, as the one-candidate case.
      [`Idle] means no queued, pending or held work remained — nothing
      happened. *)

  type escalation = {
    esc_shard : int;  (** Index into the caller's stepper array. *)
    esc_event : Event.t;  (** The winner claimed by the predicate. *)
    esc_moved : int list;
        (** Flow ids the withdrawn local plan would have migrated to
            make room — the cross-shard migration set. *)
  }

  val step_group :
    ?pool:Probe_pool.t ->
    ?escalate:(shard:int -> Planner.t -> bool) ->
    ?external_commit:
      (shard:int ->
      event:Event.t ->
      moved:int list ->
      txn_open:bool ->
      attempt:(unit -> Planner.t) ->
      bool) ->
    t array ->
    [ `Stepped of int * escalation list | `Idle ]
  (** Advance every stepper that has work by one synchronised wave —
      the engine's one round kernel. The steppers must share one
      network (raises [Invalid_argument] otherwise). The pre-round
      phase runs per stepper in array order: due faults, empty-queue
      time jump, background churn sync, series sample, candidate
      selection with PRNG draws on the calling domain. The probe phase
      then evaluates every candidate probe across all
      steppers in one batch against the quiescent wave-start state,
      fanned out through [pool] when given, else through the first
      stepper's own workers when it was created with [domains > 1]
      (decisions are bit-identical either way). The commit phase runs
      per stepper in array order: a winner whose touched edges are
      unchanged since the wave start replays its probe plan; one
      invalidated by an earlier commit of the same wave re-plans live,
      deterministically.

      Steppers may carry injectors, shared or not. While faults are
      pending, each commit runs inside its own transaction: a fault due
      before the round's head event completes aborts that round alone
      (rollback to the commit's start, then the injector's retry or
      degrade path, exactly as {!run} describes), and the invariant
      checker runs after every committed round.

      [escalate] (default: never) inspects each winner's plan before it
      commits; returning [true] withdraws the round — the event leaves
      the shard's queue unexecuted and is reported in the escalation
      list for the caller's global coordinator, with the make-room flow
      ids the withdrawn plan migrated. The predicate must be a
      deterministic function of the plan.

      [external_commit] (default: none) turns a claimed winner over to an
      inline committer instead of the escalation list: the callback
      receives the cross-shard migration set and an [attempt] thunk
      that applies the plan — a cheap validated replay of the probe
      plan when [txn_open] is [false], or the already-applied live
      replan when [txn_open] is [true] (the engine's transaction is
      open and the callback must commit or roll it back, typically by
      wrapping its own two-phase vote round). Whatever the callback
      returns, the round is booked as escalated on the shard and the
      event is {e not} reported in the escalation list — the callback
      owns its fate (committed, or queued for a later retry).

      [`Stepped (rounds, escalations)] counts the wave's rounds
      (committed + escalated); [`Idle] means no stepper had work. *)

  val register_departures : t -> completion:float -> Planner.t -> unit
  (** Register churn departures for the flows an externally executed
      plan installed (the coordinator's cross-shard commits), exactly
      as the stepper does for its own rounds. No-op without churn. *)

  val advance_clock : t -> to_s:float -> unit
  (** Wave-barrier time sync for multi-controller fabrics: lift the
      stepper's virtual clock to [to_s] (never backwards). All steppers
      sharing a fabric read one wall clock, so after each wave the
      caller advances every shard to the fabric-wide maximum — without
      it a shard whose events all escalate never sees time pass, its
      background churn stalls, and the shared fabric's utilisation
      drifts away from the refill setpoint. A no-op at or behind the
      current clock (in particular for a lone stepper). *)

  val close : t -> unit
  (** Stop and join the probe-worker domains, if any batch ever fanned
      out ([domains > 1]). Idempotent, and a no-op for sequential
      steppers. The workers spin-wait between rounds, so a long-lived
      owner (the serving layer) should close as soon as planning is
      done; a later step simply re-creates the pool on demand. *)

  val has_work : t -> bool
  val backlog : t -> int
  (** Events not yet executed: queued + future + awaiting retry. *)

  val completed : t -> int
  (** Event results accumulated so far. *)

  val now_s : t -> float
  (** Current simulated instant. *)

  val rounds : t -> int
  val policy : t -> Policy.t

  val result : t -> run_result
  (** Assemble the result from the rounds executed so far. Pure — does
      not record histograms (the batch {!run} does; long-lived callers
      record once at end-of-life). Calling it mid-run is allowed and
      reflects only completed rounds. *)

  (** {2 Checkpoint freeze/thaw}

      The stepper's decision-relevant state as a plain record:
      queues, clocks, accumulated results, plan-unit/wall accounting,
      the churn departure queue in exact pop order, and the raw PRNG
      cursor. Together with {!Nu_net.Net_state.frozen} and
      {!Nu_fault.Injector.frozen} this is everything needed to resume
      a run bit-identically. *)

  type frozen = {
    fz_policy : Policy.t;
    fz_pending : Event.t list;
    fz_queue : Event.t list;
    fz_held : (float * Event.t) list;
    fz_now : float;
    fz_rounds : int;
    fz_results : event_result list;  (** Newest-first, as accumulated. *)
    fz_log : round_info list;  (** Newest-first, as accumulated. *)
    fz_units : int;
    fz_wall : float;
    fz_next_churn_id : int;
    fz_expiry : (float * int) list;  (** Departure queue, exact pop order. *)
    fz_rng : int64;  (** {!Prng.raw_state} of the run's PRNG. *)
  }

  val freeze : t -> frozen
  (** Snapshot between rounds. The network and injector are frozen
      separately ({!Nu_net.Net_state.freeze},
      {!Nu_fault.Injector.freeze}) — a checkpoint is the triple. *)

  val thaw :
    ?exec:Exec_model.t ->
    ?config:Planner.config ->
    ?churn:churn ->
    ?co_max_cost_mbit:float ->
    ?injector:Nu_fault.Injector.t ->
    ?series:Nu_obs.Series.t ->
    ?domains:int ->
    ?observer:(observation -> unit) ->
    net:Net_state.t ->
    frozen ->
    t
  (** Rebuild a stepper that continues bit-identically: same
      configuration knobs as the original run, [net] thawed from its
      own frozen snapshot, [injector] (if the original had one) thawed
      likewise. The PRNG resumes from the frozen cursor — no [seed]
      parameter. [domains] may differ from the
      original run's — the probe fan-out width is invisible to every
      decision, so a checkpoint taken at one width replays identically
      at any other. *)
end

val record_event_histograms : event_result array -> unit
(** Record each event's service time and queuing delay into the
    [engine.event_service_s] / [engine.event_queuing_s] registry
    histograms (no-op while registry sampling is off). {!run} does this
    automatically; {!Stepper} owners call it once when a serving run
    retires. *)
