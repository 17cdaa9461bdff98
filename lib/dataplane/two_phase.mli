(** Two-phase per-flow consistent updates (Reitblatt et al.; the paper's
    related-work category "consistent update").

    Moving a set of flows to new paths in three phases:

    + {b stage} — install the new-version rules at every switch of every
      new path (old rules stay; rule memory temporarily doubles for the
      touched flows — the overhead the paper's §VI discusses);
    + {b flip} — atomically re-stamp each flow's ingress to the new
      version. Between flips the network is mixed, but every packet is
      consistently old *or* new, never both;
    + {b garbage-collect} — remove the old-version rules.

    The module consumes the transitions an applied {!Nu_update.Planner.t}
    implies (installs, the event's reroutes, and the make-room
    migrations) and executes them against a {!Fabric}. *)

type transition = {
  flow_id : int;
  old_path : Path.t option;  (** [None] for a brand-new flow. *)
  new_path : Path.t;
  old_version : int;
  new_version : int;
}

val transitions_of_plan : Fabric.t -> Nu_update.Planner.t -> transition list
(** Derive the transitions of an applied plan. The old/new version of
    each flow is read from the fabric's current ingress stamp (new flows
    start at version 0). Transition order follows the plan. *)

type stats = {
  transitions : int;
  rules_installed : int;  (** New-version rules written in the stage. *)
  rules_removed : int;  (** Old-version rules collected. *)
  peak_extra_rules : int;  (** Maximum simultaneous rule overhead. *)
  flips : int;
}

val stage : Fabric.t -> transition list -> int
(** Phase 1. Returns the number of rules installed. *)

val flip : Fabric.t -> transition -> unit
(** Phase 2 for one flow (atomic). *)

val collect : Fabric.t -> transition -> int
(** Phase 3 for one flow. Returns the number of rules removed. *)

val execute : Fabric.t -> transition list -> stats
(** Run all three phases in order (all stages, then flips in transition
    order, then all collections) and report the overheads. *)

type install_fault =
  switch:int -> flow_id:int -> [ `Drop | `Delay of float ] option
(** Per-hop install-fault oracle, consulted once per (switch, flow) rule
    write during staging. [`Drop] means the switch never acknowledged
    the install; [`Delay d] means it acked [d] seconds late. A pure
    function of (switch, flow) keeps the fault pattern independent of
    staging order. *)

type fault_report = {
  stats : stats;  (** Overheads of what actually went through. *)
  dropped_flow_ids : int list;
      (** Transitions rolled back because an install was dropped: their
          new-version rules were unstaged and the flip never issued, so
          those flows keep the old configuration verbatim. *)
  delayed_hops : int;  (** Installs that acked late (flip still ran). *)
  extra_latency_s : float;  (** Summed injected install latency. *)
}

val execute_with_faults :
  Fabric.t -> fault:install_fault -> transition list -> fault_report
(** {!execute} under an install-fault oracle. A transition with any
    dropped install is aborted: its staged rules are removed again and
    its flip is skipped — the two-phase protocol's safety net, leaving
    the dataplane exactly as before for that flow. Delayed installs
    stretch the stage phase ([extra_latency_s]) but do not abort.
    With an oracle that never fires, the result's [stats] equals
    [execute]'s. *)
