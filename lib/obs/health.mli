(** Hysteretic health state machine: [Ok -> Warn -> Critical ->
    Recovering -> Ok].

    Driven once per tick with a boolean "any detector firing" signal.
    Entry and exit both require sustained evidence (consecutive firing
    ticks to escalate, consecutive quiet ticks to de-escalate), so a
    signal oscillating at a detector threshold cannot flap the state.
    A detector firing during [Recovering] relapses straight back to
    [Critical]. All counters reset on every transition.

    The thresholds are fixed ([warn_after], [crit_after], [clear_after]
    and [recover_after] in [health.ml]): 3 firing ticks Ok -> Warn, 5
    more Warn -> Critical, 5 quiet ticks Warn -> Ok or Critical ->
    Recovering, 5 further quiet ticks Recovering -> Ok. *)

type state = Ok | Warn | Critical | Recovering

type t

val create : unit -> t
val state : t -> state

val observe : t -> firing:bool -> state option
(** Advance one tick. Returns [Some s] iff the machine transitioned
    into state [s] on this tick. *)

val state_name : state -> string
val state_rank : state -> int
(** 0 = Ok, 1 = Warn, 2 = Critical, 3 = Recovering; used for the
    [nu_health_state] gauge. *)

