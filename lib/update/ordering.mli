(** Dependency-aware ordering of a plan's flow moves (Dionysus-style,
    the paper's citation [9]).

    A plan's migrations are computed sequentially, so replaying them in
    plan order is always safe. But an SDN controller wants to issue as
    many moves as possible *concurrently*: a move can start as soon as
    its target path has room, where room may only appear after other
    moves vacate links — the capacity dependencies Dionysus encodes in
    its dependency graph. This module computes the greedy round
    decomposition: round k holds every not-yet-executed move whose target
    path is feasible given the state after rounds 1..k-1.

    The number of rounds is the depth of the dependency structure — a
    direct measure of how parallelisable an update event's execution is
    (the paper's "update cost" grows with it). A [Deadlock] (no move
    executable although some remain) cannot arise for moves produced by
    {!Migration.clear_path} replayed from the pre-plan state, but can for
    arbitrary user-supplied move sets; it is reported rather than
    resolved (Dionysus falls back to rate-limiting). *)

type move_spec = {
  flow_id : int;
  to_path : Path.t;
}

type schedule = {
  rounds : move_spec list list;  (** Execution rounds, each concurrent. *)
  depth : int;  (** [List.length rounds]. *)
  width : int;  (** Largest round. *)
}

type error =
  | Deadlock of move_spec list  (** Moves that can never proceed. *)
  | Unknown_flow of int

val of_moves : Migration.move list -> move_spec list
(** Forget the bookkeeping fields of planner moves. *)

val schedule :
  Net_state.t -> move_spec list -> (schedule, error) result
(** [schedule net moves] computes the round decomposition against a
    network state in which the moves have *not* yet been applied (e.g. a
    copy taken before {!Planner.plan}, or after a transaction rollback).
    The state is left unchanged. *)

val verify : Net_state.t -> schedule -> (unit, string) result
(** Replay the schedule round by round against a copy of the pre-move
    state and check that every move is feasible when its round starts —
    the congestion-free-transition property the zUpdate/SWAN line of
    work plans for explicitly. The input state is unchanged. *)

val pp_schedule : Format.formatter -> schedule -> unit
