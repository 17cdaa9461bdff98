(** Empirical cumulative distribution functions for reporting.

    Figure 9 of the paper plots per-event queuing delay series; producing
    a CDF of metric samples is the standard way to compare schedulers. *)

type t

val of_samples : float array -> t
(** Build an ECDF from raw observations. Raises [Invalid_argument] on an
    empty array. *)

val pp : Format.formatter -> t -> unit
(** Compact rendering: the sample count and the p10, p50, p90, p99 and
    p100 quantiles, each the smallest sample whose cumulative
    probability reaches it. *)
