(** Hysteretic health state machine: [Ok -> Warn -> Critical ->
    Recovering -> Ok].

    Driven once per tick with a boolean "any detector firing" signal.
    Entry and exit both require sustained evidence (consecutive firing
    ticks to escalate, consecutive quiet ticks to de-escalate), so a
    signal oscillating at a detector threshold cannot flap the state.
    A detector firing during [Recovering] relapses straight back to
    [Critical]. All counters reset on every transition. *)

type state = Ok | Warn | Critical | Recovering

type config = {
  warn_after : int;  (** consecutive firing ticks: Ok -> Warn *)
  crit_after : int;  (** consecutive firing ticks: Warn -> Critical *)
  clear_after : int;  (** consecutive quiet ticks: Warn -> Ok,
                          Critical -> Recovering *)
  recover_after : int;  (** further quiet ticks: Recovering -> Ok *)
}

val default : config

type t

val create : config -> t
val state : t -> state

val observe : t -> firing:bool -> state option
(** Advance one tick. Returns [Some s] iff the machine transitioned
    into state [s] on this tick. *)

val state_name : state -> string
val state_rank : state -> int
(** 0 = Ok, 1 = Warn, 2 = Critical, 3 = Recovering; used for the
    [nu_health_state] gauge. *)

