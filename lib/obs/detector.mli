(** Streaming change-point and trend detectors for the watchdog layer.

    All detectors are deterministic pure-state machines over the values
    fed to them: no wall clock, no RNG, no allocation beyond the fixed
    rings created at construction time. Feeding the same sequence of
    samples to two instances produces the same sequence of statuses
    bit for bit, which is what lets the watchdog replay a journaled
    observation stream and reproduce the live run's alerts exactly. *)

module Cusum : sig
  (** EWMA baseline + two-sided CUSUM change-point detector.

      The statistic is kept in sigma units and interpreted as a level,
      not an edge: [firing] stays true while the statistic exceeds the
      decision threshold and decays naturally as the EWMA baseline
      absorbs the shift. That level semantics is what the health state
      machine's consecutive-tick hysteresis counts over.

      The parameters are fixed: EWMA weight 0.2 for the baseline and
      the deviation; slack 0.5 sigma subtracted per step; decision
      threshold 5 sigma (each one-sided statistic capped at 10);
      10 warmup samples before the statistic arms; sigma floored at
      5% of |baseline| and at 1e-9. *)

  type direction = Up | Down

  type status = {
    firing : bool;  (** statistic currently above the threshold *)
    changed : bool;  (** rising edge: firing now, quiet last sample *)
    direction : direction option;  (** dominant side while firing *)
    score : float;  (** max of the two one-sided statistics, sigma units *)
    mean : float;  (** EWMA baseline before this sample *)
    sigma : float;  (** floored EWMA absolute deviation *)
  }

  type t

  val create : unit -> t
  val observe : t -> float -> status
  val last : t -> status
end

module Slope : sig
  (** Ordinary-least-squares slope over a fixed-size ring of samples.
      [observe] returns the per-step slope once the ring is full. *)

  type t

  val create : window:int -> t
  val observe : t -> float -> float option
end

module Rate : sig
  (** Windowed sum of per-tick integer deltas (events per [window]
      ticks). Backs the WAL corrupt-frame and supervisor-restart
      detectors, which fire when the windowed sum exceeds a budget. *)

  type t

  val create : window:int -> t
  val observe : t -> int -> int
end
