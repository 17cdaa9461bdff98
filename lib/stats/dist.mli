(** Random variates for the distributions the traces need.

    The Yahoo! and Benson-style traces are heavy-tailed: flow sizes follow
    a Pareto-like law (a few elephant flows carry most bytes) and durations
    and inter-arrivals are log-normal / exponential. This module provides
    the samplers. *)

val exponential : Prng.t -> rate:float -> float
(** [exponential rng ~rate] draws from Exp(rate); mean [1/rate].
    Requires [rate > 0]. *)

val bounded_pareto : Prng.t -> shape:float -> lo:float -> hi:float -> float
(** Pareto truncated to [lo, hi] by inverse-CDF on the truncated law
    (not rejection), so the draw is O(1). Requires [0 < lo < hi]. *)

val lognormal : Prng.t -> mu:float -> sigma:float -> float
(** [lognormal rng ~mu ~sigma] draws exp(N(mu, sigma^2)). *)
