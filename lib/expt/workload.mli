(** Shared plumbing for the figure regenerators.

    Each experiment needs the same skeleton: a loaded Fat-Tree at some
    utilisation, a queue of generated update events, a set of policies
    to compare on byte-identical initial states, and replication across
    seeds. This module owns that skeleton; the [FigN] modules only
    declare their sweeps. *)

type setup = {
  utilization : float;  (** Background fabric-utilisation target. *)
  n_events : int;
  shape : Event_gen.shape;
  seed : int;
  churn : bool;  (** Dynamic background (Fig. 6/8/9) or static (Fig. 7). *)
}

val default_setup : setup
(** 70% utilisation, 30 heterogeneous events, seed 42, churn on. *)

val averaged :
  setup -> seeds:int list -> Policy.t list ->
  (Policy.t * Metrics.summary list) list
(** Per seed, prepare one scenario, then run every policy from a copy
    of the same prepared state and identical sampling seed. Returns,
    per policy in input order, the per-seed summaries (callers
    aggregate whichever field they plot). *)

val mean_of : ('a -> float) -> 'a list -> float
(** Average a field over replicate summaries. *)

val reduction_pct : baseline:float -> float -> float
(** Percent reduction vs baseline. *)
