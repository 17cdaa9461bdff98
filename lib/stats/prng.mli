(** Deterministic pseudo-random number generation.

    The whole reproduction is seed-driven: every workload, trace and
    scheduler decision derives from a [Prng.t], so experiments are exactly
    repeatable. The generator is SplitMix64 (Steele et al., OOPSLA 2014):
    fast, high quality for simulation purposes, and trivially splittable,
    which lets independent subsystems (trace generation, event generation,
    LMTF sampling) own uncorrelated streams derived from one master seed. *)

type t
(** Mutable generator state. Not thread-safe; use {!split} to hand a
    private stream to each concurrent consumer. *)

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. Equal seeds
    yield equal streams. *)

val raw_state : t -> int64
(** The generator's raw 64-bit counter — the whole state. Serialise it to
    checkpoint a stream mid-run; {!of_raw_state} resumes it exactly. *)

val of_raw_state : int64 -> t
(** Rebuild a generator from {!raw_state}. [of_raw_state (raw_state t)]
    continues [t]'s stream bit-for-bit. Unlike {!create}, the value is
    used verbatim (no seeding mix). *)

val split : t -> t
(** [split t] derives a new, statistically independent generator and
    advances [t]. Use one split per subsystem so adding draws in one place
    does not perturb another. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound-1]. [bound] must be
    positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] draws uniformly from the inclusive range [lo, hi].
    Requires [lo <= hi]. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [0, bound). *)

val float_in : t -> float -> float -> float
(** [float_in t lo hi] draws uniformly from [lo, hi). Requires [lo <= hi]. *)

val unit_float : t -> float
(** Uniform draw in [0,1), 53-bit precision. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_without_replacement : t -> int -> int -> int list
(** [sample_without_replacement t k n] draws [k] distinct indices from
    [0, n-1] (Floyd's algorithm). Returns all of [0, n-1] when [k >= n].
    Requires [k >= 0] and [n >= 0]. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. Raises [Invalid_argument] on an
    empty array. *)
