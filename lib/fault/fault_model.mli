(** Deterministic, seed-driven fault schedules.

    The paper evaluates scheduling on a fault-free fabric; the
    consistent-update literature it belongs to is centrally about the
    network misbehaving mid-update. This module generates the
    misbehaviour: a timed schedule of link failures/repairs, switch
    failures (all incident links), and partial capacity degradations,
    drawn from the {!Nu_stats.Prng} stream so that equal seeds always
    yield bit-identical schedules — chaos runs are exactly replayable.

    The schedule is data, not behaviour: {!Injector} interprets it
    against a live {!Nu_net.Net_state.t} inside the engine loop. *)

type action =
  | Link_down of int
      (** Fail a link by primary edge id (its reverse fails too). *)
  | Link_up of int  (** Repair a failed link. *)
  | Switch_down of int  (** Fail every link incident to the node id. *)
  | Switch_up of int  (** Repair those links. *)
  | Degrade of { edge : int; lost_mbps : float }
      (** Remove part of a link's capacity in both directions. *)
  | Restore of int  (** Undo every degradation on the edge (both ways). *)

type fault = { at_s : float; action : action }

type schedule = fault list
(** Sorted by [at_s]; ties keep generation order. *)

type config = {
  rate_per_s : float;  (** Expected primary faults per simulated second. *)
  horizon_s : float;  (** Primary faults are drawn in [0, horizon_s). *)
  repair_s : float;  (** Down/degraded duration before the paired repair. *)
  degrade_frac : float;  (** Fraction of capacity a degradation removes. *)
}

val default_config : config
(** 0.2 faults/s over a 40 s horizon, 5 s repair, 50% degradation. *)

val generate : ?config:config -> seed:int -> Topology.t -> schedule
(** Draw a schedule for the topology: link faults and degradations hit
    fabric (switch-to-switch) links, switch faults hit non-host nodes.
    The fault kinds are drawn with the fixed weights
    [link_weight]:[switch_weight]:[degrade_weight] = 3:1:2 (constants
    in [fault_model.ml]). Every fault is paired with its
    repair [repair_s] later. Equal seeds and topologies yield equal
    schedules. *)

val action_tag : action -> int
(** Stable small integer code per constructor (digest material). *)

val subject : action -> int
(** The edge or node id the action targets. *)

val pp_action : Format.formatter -> action -> unit
