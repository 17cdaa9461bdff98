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
(** One service round — the run's audit trail. Lets experiments
    observe the utilisation trajectory (the paper's "utilization
    fluctuates between 50% and 70%") and the batch sizes P-LMTF
    achieves. Flow-level runs log one round per flow, with [executed]
    naming the flow's parent event. *)

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
          the caller's [escalate] hook for the global coordinator: the
          event left the shard's queue without executing there. *)

type run_result = {
  policy : Policy.t;
  events : event_result array;  (** Sorted by event id. *)
  rounds : int;  (** Service rounds executed. *)
  rounds_log : round_info list;
      (** Chronological. A flow-level run logs one round per flow, whose
          [executed] names the flow's parent event. *)
  total_plan_units : int;
      (** Every planner probe across the run: estimates, co-scheduling
          attempts and executed plans. *)
  total_plan_time_s : float;  (** [total_plan_units] x unit cost. *)
  total_cost_mbit : float;
  makespan_s : float;  (** Completion of the last event. *)
  final_fabric_utilization : float;
  planning_wall_s : float;
      (** Real seconds spent in the planner; since the restore for a
          thawed {!Stepper}. *)
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

val run :
  ?seed:int ->
  ?churn:churn ->
  ?injector:Nu_fault.Injector.t ->
  ?domains:int ->
  net:Net_state.t ->
  events:Event.t list ->
  Policy.t ->
  run_result
(** Simulate the queue to completion, planning with
    {!Planner.default_config} and billing time with {!Exec_model}.
    [events] need not be sorted. [seed] (default 7) drives LMTF/P-LMTF
    sampling and churn — given equal seeds, runs are exactly
    reproducible. [domains] (default 1) sets the candidate-probe fan-out
    width: with [domains > 1] each round's candidate probes are
    evaluated in parallel on that many worker domains ({!Probe_pool}),
    with bit-identical decisions, digests and counter totals at any
    width — only the planning wall clock changes. Raises
    [Invalid_argument] when [domains < 1].
    P-LMTF co-schedules a candidate only when a scan-first plan
    alongside the in-flight batch satisfies every item at zero
    migration cost — i.e. the candidate's flows fit in the residual
    capacity without displacing anything (§IV-C's "can be updated with
    the first event together"). Raises [Invalid_argument] on an invalid
    policy.

    [injector] attaches a fault schedule ({!Nu_fault.Injector}). While
    faults remain pending, each round runs inside a
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
    bit-identical to a fault-free run. A flow-level run is FIFO over
    one-flow events, so a fault that lands mid-flow aborts and retries
    that flow alone.

    When {!Nu_obs.Histogram.Registry} sampling is enabled, the run
    records each event's service time and queuing delay into the
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
    ?seed:int ->
    ?churn:churn ->
    ?injector:Nu_fault.Injector.t ->
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
      on a flow-level policy: {!run} splits its events into one-flow
      events up front, which a stepper fed by {!submit} cannot do. *)

  val submit : t -> Event.t list -> unit
  (** Merge new arrivals (any order) into the arrival queue at their
      arrival rank. Events whose [arrival_s] is already due enter the
      service queue immediately, at their (arrival, id) rank, so one
      [submit] or several before a step give the same queue. Submitting every event up front and
      stepping to exhaustion is bit-identical to {!run}. *)

  val step : t -> [ `Stepped | `Idle ]
  (** Execute one service round (including any leading idle-time jump
      to the next arrival or retry instant): the one-stepper wave of
      {!step_group}, with no escalation hook. Nothing runs
      between its probes and its commit, so the winner always replays
      its probe plan — FIFO included, as the one-candidate case.
      [`Idle] means no queued, pending or held work remained — nothing
      happened. *)

  val step_group :
    ?escalate:
      (shard:int ->
      event:Event.t ->
      plan:Planner.t ->
      txn_open:bool ->
      attempt:(unit -> Planner.t) ->
      bool) ->
    t array ->
    [ `Stepped | `Idle ]
  (** Advance every stepper that has work by one synchronised wave —
      the engine's one round kernel. The steppers must share one
      network (raises [Invalid_argument] otherwise). The pre-round
      phase runs per stepper in array order: due faults, empty-queue
      time jump, background churn sync, candidate selection with PRNG
      draws on the calling domain. The probe phase then evaluates every
      candidate probe across all steppers in one batch against the
      quiescent wave-start state, fanned out through the first stepper's
      own workers when it was created with [domains > 1], whether or not
      it has work this wave (decisions are bit-identical either way). A
      group that wants a wider fan-out creates its first stepper with
      more domains. The commit phase runs per stepper in array order: a
      winner whose touched edges are unchanged since the wave start replays its probe plan; one
      invalidated by an earlier commit of the same wave re-plans live,
      deterministically.

      Steppers may carry injectors, shared or not. While faults are
      pending, each commit runs inside its own transaction: a fault due
      before the round's head event completes aborts that round alone
      (rollback to the commit's start, then the injector's retry or
      degrade path, exactly as {!run} describes), and the invariant
      checker runs after every committed round.

      [escalate] (default: never) sees each winner before it commits,
      with the index [shard] of its stepper in the array, the winning
      [event] and its [plan]. Returning [false] lets the round commit
      normally; the hook must then not have called [attempt].
      Returning [true] claims the winner: the event leaves the
      stepper's queue, the round is booked as escalated, and the hook
      owns the plan. [attempt] applies it — a cheap validated replay
      of the probe plan when [txn_open] is [false], or the
      already-applied live re-plan when [txn_open] is [true]. In the
      latter case the engine's transaction is open and the hook must
      commit or roll it back (the sharded fabric's coordinator
      commits it). The claim must be a deterministic function of the plan
      and the network.

      [`Idle] means no stepper had work. *)

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

  val result : t -> run_result
  (** Assemble the result from the rounds executed so far. Pure — does
      not record histograms (the batch {!run} does; long-lived callers
      record once at end-of-life). Calling it mid-run is allowed and
      reflects only completed rounds. *)

  (** {2 Checkpoint freeze/thaw}

      The stepper's decision-relevant state as a plain record:
      queues, clocks, accumulated results, plan-unit accounting,
      the churn departure queue in exact pop order, and the raw PRNG
      cursor. Together with {!Nu_net.Net_state.frozen} and
      {!Nu_fault.Injector.frozen} this is everything needed to resume
      a run bit-identically. Planner wall time is deliberately left
      out, so a snapshot is a function of the run's inputs alone; after
      a {!thaw}, [planning_wall_s] counts planning since the restore. *)

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
    fz_next_churn_id : int;
    fz_expiry : (float * int) list;  (** Departure queue, exact pop order. *)
    fz_rng : int64;  (** {!Prng.raw_state} of the run's PRNG. *)
  }

  val freeze : t -> frozen
  (** Snapshot between rounds. The network and injector are frozen
      separately ({!Nu_net.Net_state.freeze},
      {!Nu_fault.Injector.freeze}) — a checkpoint is the triple. *)

  val thaw :
    ?churn:churn ->
    ?injector:Nu_fault.Injector.t ->
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
