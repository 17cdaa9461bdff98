(** Runtime interpreter of a fault schedule against a live network.

    One injector accompanies one {!Nu_sched.Engine.run}: the engine asks
    when the next fault is due (to decide whether an executing round
    will be interrupted), tells the injector to apply every due fault at
    the current simulated instant, and consults it for abort/retry/
    degrade decisions. The injector owns the mutable pieces — schedule
    cursor, per-event attempt counts, the {!Recovery} log — so the
    engine's fault path stays a handful of calls, and a run without an
    injector pays nothing.

    Applying a fault also {b repairs the placement}: flows left on
    failed or over-degraded capacity are evacuated deterministically (in
    flow-id order, first enabled candidate path; dropped when none
    fits), so blackhole-freedom and capacity non-violation hold again
    before the engine resumes — that is the invariant {!check_now}
    asserts. *)

type t

val create : ?retry:Retry_policy.t -> Fault_model.schedule -> t
(** Raises [Invalid_argument] on an invalid retry policy. *)

val recovery : t -> Recovery.t

(** {2 Checkpoint freeze/thaw}

    The decision-relevant injector state — the unapplied schedule suffix
    and the per-event abort counts that drive retry backoff — as a
    plain serialisable record. The recovery log is deliberately not
    frozen: it is append-only telemetry, and a thawed injector logs the
    post-restore suffix afresh. *)

type frozen = {
  fz_pending : Fault_model.schedule;  (** Unapplied faults, time-sorted. *)
  fz_attempts : (int * int) list;  (** (event id, aborts so far), id-sorted. *)
  fz_violations : int;
}

val freeze : t -> frozen

val thaw : ?retry:Retry_policy.t -> frozen -> t
(** Rebuild an injector that makes bit-identical abort/retry/degrade
    decisions from this point on, given the same [retry] policy as the
    original (same default as {!create}). Its first {!check_now} is a
    full sweep. *)

val next_due_s : t -> float option
(** Arrival time of the earliest unapplied fault, if any. *)

val apply_due : t -> Net_state.t -> now:float -> int
(** Apply every fault with [at_s <= now] in schedule order: flip the
    administrative state, then evacuate affected flows. Records each
    application and evacuation in the recovery log. Returns how many
    faults were applied. *)

val note_abort :
  t -> event_id:int -> now:float -> [ `Retry_at of float | `Degrade ]
(** One aborted attempt for the event: records the abort and either the
    retry (with its deterministic backoff-adjusted ready time) or the
    degradation decision. *)

val check_now : t -> Net_state.t -> now:float -> Invariant.violation list
(** Check the invariants, record every violation in the recovery log,
    and return them. The check is incremental: the injector holds a
    bounded cursor on the net's committed log
    ({!Nu_net.Net_state.drain_changed}) and runs
    {!Invariant.check_changed} over the flows written since its
    previous check, at O(changed flows × their paths) plus flat array
    reads over the edges. Other readers of the log — a probe pool, a
    second injector — hold cursors of their own and do not disturb it.
    The full {!Invariant.check} runs instead on the first check of a
    net (after {!create} or {!thaw}, or on a net other than the last
    one checked), on every 16th check, after the cursor was dropped for
    lagging (the next check takes a fresh one), and inside an open
    transaction. Either way the returned names and counts are the full
    sweep's. *)

val violations : t -> int
(** Total violations recorded so far. *)
