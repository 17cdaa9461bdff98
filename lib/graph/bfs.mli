(** Breadth-first search: fewest-hop paths.

    In a Fat-Tree all shortest paths have equal hop count, and the
    candidate path set P(f) of a flow is exactly the ECMP set of
    fewest-hop paths. [usable] lets callers restrict the search to edges
    with enough residual bandwidth or to exclude failed links. *)

val distance :
  Graph.t -> ?usable:(Graph.edge -> bool) -> src:int -> dst:int -> unit ->
  int option
(** Hop distance, or [None] when unreachable. *)

val shortest_path :
  Graph.t -> ?usable:(Graph.edge -> bool) -> src:int -> dst:int -> unit ->
  Path.t option
(** One fewest-hop path (deterministic: first edge in insertion order
    wins). [None] when unreachable or [src = dst]. *)
