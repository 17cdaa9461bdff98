(** Local migration of existing flows (paper Definition 1 and §IV-A).

    When a flow f_a of an update event finds every link of a desired path
    congested-free except some set E^c, the network can still admit it by
    migrating a subset F_a of the existing flows crossing E^c to other
    parts of the network. Choosing the minimum-traffic F_a is
    NP-complete (the paper cites [8]); this module implements the greedy
    approximation: per congested link, relocatable flows are taken in a
    configurable order until the freed bandwidth closes the capacity gap
    (constraint (3)), and every migrated flow is moved to a path that is
    itself congestion-free (constraint (5)) and avoids the whole desired
    path, which guarantees monotone progress. *)

type move = {
  flow_id : int;
  from_path : Path.t;
  to_path : Path.t;
  size_mbit : float;  (** Migrated traffic volume — the cost unit. *)
  demand_mbps : float;  (** Bandwidth freed on the vacated links. *)
}

type order =
  | Best_fit_first
      (** The default: if one flow's demand covers the remaining gap,
          migrate the smallest-sized such flow; otherwise take the flow
          with the best size-per-Mbps ratio and recurse. Closes gaps with
          few moves ("a few existing flows", §I) at near-minimal migrated
          traffic. *)
  | Smallest_size_first
      (** Strictly cheapest-traffic-first; can migrate many mice per gap
          (ablation). *)
  | Largest_demand_first
      (** Close the gap with the fewest moves regardless of traffic
          (ablation). *)
  | Best_ratio_first
      (** Smallest size per Mbps freed (ablation). *)

val order_name : order -> string
val all_orders : order list

type blocked =
  | Cannot_free of Graph.edge
      (** No relocatable subset closes this link's gap. *)

val moves_cost_mbit : move list -> float
(** Sum of migrated traffic — sum(F_a) of Definition 2. *)

val clear_path :
  ?order:order ->
  ?policy:Routing.policy ->
  ?forbidden:(Net_state.candidates -> int -> bool) ->
  ?work_units:int ref ->
  Net_state.t ->
  demand:float ->
  path:Path.t ->
  exclude:(int -> bool) ->
  (move list, blocked) result
(** [clear_path net ~demand ~path ~exclude] migrates existing flows until
    every edge of [path] has residual >= demand, mutating [net] (the
    chosen reroutes are applied). [exclude] marks flows that must not be
    migrated (the event's own flows). On [Error _] the state is rolled
    back to exactly its entry value. [work_units], when given, is
    incremented once per feasibility probe — the planner's virtual
    plan-time meter. [policy] chooses relocation targets (default
    first-fit) among a moved flow's candidates that [forbidden] (default
    none) does not reject. Planning draws no randomness, so
    [Random_fit] raises [Invalid_argument]. *)
