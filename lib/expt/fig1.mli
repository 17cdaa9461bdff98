(** Fig. 1 — success probability of accommodating a flow without
    migration, versus link utilisation.

    The paper plots, for a k=8 Fat-Tree under (a) the Yahoo! trace and
    (b) the random (Benson) trace, the probability that a new flow of an
    update event can be inserted directly — no existing flow migrated —
    as utilisation rises; the probability falls regardless of flow size.
    We report two definitions per size class: the desired (ECMP-hashed)
    path being free, and any candidate path being free. *)

type point = {
  trace : string;
  utilization : float;  (** Fabric-utilisation setpoint of the fill. *)
  p_desired_small : float;  (** Desired path free; demand < 10 Mbps. *)
  p_desired_mid : float;  (** 10-50 Mbps. *)
  p_desired_large : float;  (** > 50 Mbps. *)
  p_desired_all : float;
  p_any_all : float;  (** Some candidate path free, any size. *)
}

val compute : seed:int -> samples:int -> point list
(** [samples] probe flows per point, utilisations 0.1 to 0.9. *)

val run : ?seed:int -> ?samples:int -> unit -> unit
(** Compute and print the table (defaults: seed 42, 400 samples). *)
