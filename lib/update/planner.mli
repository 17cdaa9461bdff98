(** Update-event planning: Cost(U) and the applied plan (paper §III-B, §IV-A).

    For each work item of an event the planner first looks for a
    congestion-free candidate path; failing that, it picks the candidate
    whose capacity gaps are smallest and clears it with
    {!Migration.clear_path}. The total migrated traffic over all items is
    Cost(U) of Definition 2 — the scheduling metric of LMTF/P-LMTF.

    [plan] mutates the network (the event becomes installed) and returns
    a reversible record; [revert] undoes it exactly. Cost estimation for
    queue scheduling is plan-then-revert ({!cost_of}), which is how the
    paper's schedulers "calculate the update costs for α+1 update events"
    against the live network state each round. *)

type admission =
  | Desired_first
      (** The paper's order: check the flow's ECMP-hashed desired path,
          migrate existing flows off it if congested, and only then look
          at other candidates. Keeps flows where the update plan wants
          them at the price of more migration (non-zero Cost(U)). *)
  | Scan_first
      (** Ablation: hunt for any congestion-free candidate before
          migrating anything. Minimises migration, ignores the desired
          placement. *)

val admission_name : admission -> string

type config = {
  policy : Routing.policy;
      (** Path selection for installs and targets. [Random_fit] is a fill
          policy ({!Nu_net.Background.fill}), not a planning one: planning
          draws no randomness, so a plan with it raises
          [Invalid_argument]. *)
  order : Migration.order;  (** Greedy order inside {!Migration}. *)
  admission : admission;
}
(** Every plan tries migration on at most 4 candidate paths before an
    item fails. *)

val default_config : config
(** First-fit, best-fit-first, desired-first. *)

type failure_reason =
  | No_candidate_path  (** P(f) is empty (or all filtered out). *)
  | Could_not_free  (** Every clear attempt was blocked. *)
  | Flow_not_placed  (** A [Reroute] item names an unknown flow. *)
  | Already_placed  (** An [Install] item reuses a placed flow id. *)

type outcome =
  | Installed of { path : Path.t; moves : Migration.move list }
  | Rerouted of {
      from_path : Path.t;
      to_path : Path.t;
      moves : Migration.move list;
    }
  | Failed of failure_reason

type item_plan = { work : Event.work; outcome : outcome }

type t = {
  event : Event.t;
  items : item_plan list;  (** Work order. *)
  cost_mbit : float;  (** Cost(U): make-room migrated traffic. *)
  move_count : int;  (** Make-room migrations performed. *)
  failed_count : int;  (** Unsatisfiable work items (left untouched). *)
  transfer_mbit : float;
      (** Traffic volume actually moved during execution: make-room moves
          plus the event's own reroute work. Drives execution time. *)
  rule_hops : int;
      (** Path hops programmed (installs + both reroute kinds) — the
          rule-update component of execution time. *)
  work_units : int;  (** Feasibility probes consumed while planning. *)
}

val plan :
  ?config:config ->
  ?frozen:(int -> bool) ->
  Net_state.t ->
  Event.t ->
  t
(** Plan and apply the event against the live state. Failed items leave
    no trace. [frozen] (default: none) marks flow ids that must not be
    migrated to make room — P-LMTF uses it for flows other events of the
    same round are still installing. *)

val revert : Net_state.t -> t -> unit
(** Undo a plan returned by {!plan}, newest-first, restoring the exact
    prior placements. Must be called on the same state value, with no
    interleaved conflicting mutations. *)

val replay : Net_state.t -> t -> unit
(** Re-apply a plan whose effects were undone (by {!revert} or a
    transaction rollback), replaying the recorded make-room moves and
    install/reroute actions directly — no candidate search, no clear
    attempts, O(recorded operations). Only valid when the state is
    identical to the one the plan was computed against (the estimate
    cache's version stamps guarantee this); raises [Invalid_argument]
    if the state has diverged. *)

type estimate = {
  est_cost_mbit : float;
  est_failed : int;
  est_work_units : int;
}

type probe = {
  probe_est : estimate;
  probe_plan : t;
      (** The speculative plan itself — replayable via {!replay} while
          the state is unchanged on every touched edge. *)
  probe_touched : int array;
      (** Edge ids the plan read or wrote, sorted ascending. *)
}

val probe : Net_state.t -> Event.t -> probe
(** {!plan} with {!default_config} and nothing frozen, inside a {!Nu_net.Net_state.begin_txn}/[rollback] bracket and
    record the touched-edge set. The state is unchanged on return; the
    rollback costs O(operations performed) rather than a full revert
    re-plan. This is the replayable form of {!cost_of}. *)

val cost_of : Net_state.t -> Event.t -> estimate
(** [(probe net event).probe_est] — plan, read Cost(U), roll back. The
    state is unchanged on return. *)

val pp : Format.formatter -> t -> unit
