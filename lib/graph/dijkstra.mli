(** Weighted shortest paths.

    Migration targets in the paper must avoid creating new congestion
    (constraint (5)); routing a migrated flow along the *least-loaded*
    feasible path is the natural policy. Dijkstra over a caller-supplied
    non-negative edge weight supports hop count ([fun _ -> 1.0]),
    utilisation-aware weights, and anything in between. *)

val shortest_path :
  Graph.t ->
  ?usable:(Graph.edge -> bool) ->
  weight:(Graph.edge -> float) ->
  src:int ->
  dst:int ->
  unit ->
  (Path.t * float) option
(** Minimum-total-weight path and its weight. Weights must be
    non-negative; raises [Invalid_argument] on a negative weight. [None]
    when unreachable or [src = dst]. Deterministic tie-breaking. *)
