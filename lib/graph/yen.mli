(** Yen's algorithm: k shortest loopless paths.

    The candidate path set P(f) on irregular fabrics (leaf–spine with
    heterogeneous links, partially failed Fat-Trees) is not a pure ECMP
    set; Yen over a weight function provides a principled, ranked
    candidate list for the planner to try in order. *)

val k_shortest :
  Graph.t ->
  ?weight:(Graph.edge -> float) ->
  k:int ->
  src:int ->
  dst:int ->
  unit ->
  (Path.t * float) list
(** Up to [k] loopless paths in non-decreasing total weight (default
    weight: hop count). Deterministic. Empty when unreachable, [k <= 0]
    or [src = dst]. *)
