(** Inter-event scheduling policies (paper §III-C, §IV).

    All policies consume the same arrival-ordered queue of update events;
    they differ in which event(s) each service round executes:

    - {!Fifo}: strict arrival order, one event per round — maximally fair,
      suffers head-of-line blocking under heavy-tailed event sizes.
    - {!Reorder}: the "intrinsic" strawman — recompute every queued
      event's cost each round and run the cheapest; best ECTs in theory,
      huge plan time and no fairness.
    - {!Lmtf}: least migration traffic first — sample α random non-head
      events, cost them together with the head, run the cheapest of the
      α+1 (power-of-d-choices; §IV-B).
    - {!Plmtf}: parallel LMTF — LMTF head selection, then opportunistically
      co-execute the other α candidates, visited in arrival order, when
      they remain satisfiable alongside the new head (§IV-C).
    - {!Flow_level}: the paper's baseline abstraction — individual flows
      scheduled with no event grouping; an event finishes when its last
      flow does. The engine runs it as {!Fifo} over one-flow events
      ordered by {!flow_order}. *)

type flow_order =
  | Round_robin
      (** Interleave: first flows of every queued event, then second
          flows, ... (the ordering depicted in the paper's Fig. 2a). *)
  | By_arrival  (** Strictly by flow arrival time, then event id. *)

type t =
  | Fifo
  | Reorder
  | Lmtf of { alpha : int }
  | Plmtf of { alpha : int }
  | Flow_level of flow_order

val name : t -> string
(** Short stable identifier ("fifo", "lmtf(a=4)", ...). *)

val default_alpha : int
(** 4 — the paper's evaluation setting. *)

val validate : t -> (unit, string) result
(** Rejects non-positive α. *)
