(** Network paths.

    A path is a contiguous, loop-free sequence of directed edges. Flows
    (paper §III-A) are unsplittable: each flow is pinned to exactly one
    path p ∈ P(f), so paths are the unit of placement, congestion checking
    and migration.

    Layout: the edge ids and the graph's own shared edge records, two
    flat arrays in traversal order and nothing else (no list, no
    {!Graph.t}): 3 + 2(h+1) words for h hops, 17 for a 6-hop path. Nodes
    and the list views are derived on demand. *)

type t

val of_ids : Graph.t -> int array -> t
(** [of_ids g ids] builds the path over edge ids of [g], retaining [ids]
    (do not mutate it afterwards). Validates non-emptiness, contiguity
    ([dst] of each edge equals [src] of the next) and node-simplicity
    (no repeated node, i.e. loop-free); raises [Invalid_argument]
    otherwise. *)

val make : Graph.t -> Graph.edge list -> t
(** {!of_ids} over the edges' ids, with the same checks and messages. *)

val src : t -> int
val dst : t -> int

val edges : t -> Graph.edge list
(** Edges in traversal order (a fresh list; hot loops use {!hop_ids}). *)

val edge_ids : t -> int list

val hop_ids : t -> int array
(** Edge ids in traversal order as the path's internal flat array —
    zero-copy, so callers must not mutate it. This is the hot-path view:
    {!Nu_net} walks it with plain [for] loops. *)

val nodes : t -> int list
(** Visited nodes in order, [src] first, [dst] last. *)

val hops : t -> int
(** Number of edges. *)

val mentions_edge : t -> int -> bool
(** [mentions_edge p id] is true when edge [id] lies on [p]. *)

val mentions_node : t -> int -> bool

val equal : t -> t -> bool
(** Structural equality on edge id sequences. *)

val pp : Format.formatter -> t -> unit
(** Renders as [v0->v1->...->vn]. *)
