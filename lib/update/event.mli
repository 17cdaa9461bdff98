(** The event-level abstraction of network update (paper §III-A).

    An update event U = \{f_1, ..., f_w\} groups every flow an update
    issue involves, so the planner and schedulers treat them as one
    entity. Three concrete update issues from the paper's introduction
    are expressible:

    - plain flow additions (the generated workloads of §V);
    - VM migration — "a set of new flows would be generated for
      migrating involved VMs", i.e. also additions;
    - switch upgrade — "all flows initially passing through it should be
      rerouted along other parts of the network", i.e. forced reroutes of
      existing flows. *)

type avoid =
  | Unconstrained  (** Any candidate path will do. *)
  | Avoid_node of int  (** Switch upgrade: stay clear of this node. *)
  | Avoid_edges of int list
      (** Link failure: stay clear of these edge ids (typically both
          directions of the failed link). *)

type work =
  | Install of Flow_record.t
      (** Admit a new flow (additions, VM-migration traffic). *)
  | Reroute of { flow_id : int; avoid : avoid }
      (** Move an existing placed flow subject to an avoidance
          constraint. *)

type kind =
  | Additions  (** Generic new-flow event. *)
  | Vm_migration  (** Additions whose flows carry VM state. *)
  | Switch_upgrade of int  (** Reroutes evacuating this switch node. *)
  | Link_failure of int * int
      (** Reroutes evacuating a failed (bidirectional) link, given as its
          two directed edge ids. *)

type t = {
  id : int;
  arrival_s : float;
  kind : kind;
  work : work list;  (** Non-empty. *)
}

val of_specs : Event_gen.spec list -> t list
(** Wrap each generated workload spec as an all-installs [Additions]
    event. Raises [Invalid_argument] on a spec with no flows. *)

val vm_migration_event :
  id:int ->
  arrival_s:float ->
  flows:Flow_record.t list ->
  t
(** Additions carrying VM state; [flows] must be non-empty. *)

val switch_upgrade_event :
  Net_state.t -> id:int -> arrival_s:float -> switch:int -> t
(** Build the evacuation event for a switch from the current network
    state: one [Reroute] per flow whose path visits [switch]. Raises
    [Invalid_argument] when no flow crosses the switch (nothing to
    update). *)

val link_failure_event :
  Net_state.t -> id:int -> arrival_s:float -> edge:int -> t
(** Build the evacuation event for a failed link: one [Reroute] per flow
    crossing the directed edge [edge] or its reverse; new paths must
    avoid both directions. Raises [Invalid_argument] when the edge id is
    out of range or no flow crosses the link. *)

val candidate_respects :
  Net_state.t -> Net_state.candidates -> int -> avoid -> bool
(** Whether candidate [i] satisfies an avoidance constraint. *)

val work_count : t -> int
(** w — the number of flows the event involves. *)

val compare_by_arrival : t -> t -> int
(** Arrival order; ties by id. The queue order of §III-C. *)
