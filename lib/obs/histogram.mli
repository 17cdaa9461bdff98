(** HDR-style log-bucketed streaming histograms.

    The paper's evaluation is statistical — average vs. tail completion
    times, fairness across events — so the analysis layer needs
    distribution summaries, not scalar counters. A histogram records
    non-negative float samples into logarithmic buckets: each octave
    [2^(e-1), 2^e) is split into [sub_buckets] linear sub-buckets, so
    every recorded value lands in a bucket whose width is at most
    [1/sub_buckets] of its value. Memory is O(occupied buckets)
    regardless of sample count, recording is O(1), and quantiles are
    answered to within one bucket's relative error, [1 / sub_buckets].

    Exact count, sum, min and max are tracked on the side, so [mean]
    and the JSON [min]/[max] are exact; only quantiles are
    approximate. *)

type t

val create : ?sub_buckets:int -> unit -> t
(** [sub_buckets] (default 64) is the number of linear sub-buckets per
    octave; must be at least 1. Larger values trade memory for quantile
    precision: the relative quantile error is bounded by
    [1 / sub_buckets]. *)

val record : t -> float -> unit
(** Record one sample. Zero is tracked exactly in a dedicated bucket.
    Raises [Invalid_argument] on negative or non-finite samples — the
    recorded quantities (latencies, counts, traffic volumes) are
    non-negative by construction, so a negative sample is a bug worth
    surfacing. *)

val count : t -> int
val sum : t -> float
val mean : t -> float
(** Exact mean. Raises [Invalid_argument] when empty. *)

val is_empty : t -> bool

val quantile : t -> float -> float
(** [quantile t q] with [q] in [0, 1]: the linear-interpolation
    ("type 7") quantile estimate — the same rank convention as
    {!Nu_stats.Descriptive.percentile} — answered from bucket midpoints
    and clamped into the exact [[min, max]]. The result is within
    [1 / sub_buckets] relative error of the exact quantile of the recorded
    samples. Raises [Invalid_argument] when empty or [q] out of
    range. *)

val p50 : t -> float
val p99 : t -> float
val p999 : t -> float

val buckets : t -> (float * float * int) list
(** Occupied buckets as [(lo, hi, count)] sorted by lower bound, the
    zero bucket (when occupied) first as [(0, 0, count)] — the same
    triples {!to_json} renders. Exposition formats build cumulative
    [le] series from the [hi] bounds. *)

val copy : t -> t

val merge : t -> t -> t
(** Fresh histogram holding both inputs' samples. Merging is
    commutative and associative on the bucket counts (the float [sum]
    accumulates in argument order, so its low bits may differ across
    associations). Raises [Invalid_argument] when the two histograms
    have different [sub_buckets]. *)

val to_json : t -> Json.t
(** Object with exact [count]/[sum]/[min]/[max]/[mean], the [p50]/
    [p90]/[p99]/[p999] estimates ([null] when empty), [sub_buckets],
    and the occupied [buckets] as [[lo, hi, count]] triples sorted by
    lower bound (the zero bucket reported as [[0, 0, count]]). *)

val pp : Format.formatter -> t -> unit
(** One-line [n/mean/p50/p90/p99/p999/max] rendering. *)

(** Process-wide named-histogram registry, following the {!Counters}
    pattern but gated like {!Trace}: recording is off by default and
    the off state is one boolean load — hot paths guard clock reads and
    value computation behind [if Registry.enabled () then ...], so an
    unsampled run allocates nothing for histogram instrumentation. *)
module Registry : sig
  val enabled : unit -> bool
  val enable : unit -> unit
  val disable : unit -> unit

  val record : string -> float -> unit
  (** Record into the named histogram, creating it on first use
      (default [sub_buckets]). No-op when disabled. *)

  val snapshot : unit -> (string * t) list
  (** Independent copies of every named histogram, sorted by name. *)

  val reset : unit -> unit
  (** Drop every named histogram (does not change enablement). *)
end
