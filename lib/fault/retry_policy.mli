(** Bounded retry with deterministic exponential backoff in simulated
    time.

    When a fault aborts an in-flight update event, the engine does not
    crash and does not drop the event: it re-queues it after a backoff
    that grows exponentially with the number of aborts that event has
    already suffered, and after [max_attempts] aborts it falls back to
    graceful degradation (a best-effort scan-first plan that accepts
    unsatisfiable items instead of waiting for the fabric to heal).
    Everything is pure arithmetic on simulated time — two runs with the
    same fault schedule make the same retry decisions. *)

type t = {
  max_attempts : int;  (** Aborts tolerated before degrading (>= 1). *)
  base_backoff_s : float;  (** Backoff after the first abort (>= 0). *)
  multiplier : float;  (** Growth per further abort (>= 1). *)
}

val default : t
(** 3 attempts, 50 ms base, doubling. *)

val validate : t -> (unit, string) result

val decide : t -> attempt:int -> [ `Retry_after of float | `Degrade ]
(** Decision after the [attempt]-th abort of one event (1-based): retry
    after [base_backoff_s *. multiplier ^ (attempt - 1)], or degrade
    once the budget is exhausted. *)
