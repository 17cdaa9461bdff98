(** Two-tier leaf–spine (Clos) fabric.

    Not used by the paper's headline evaluation, but the schedulers are
    fabric-agnostic; a second topology exercises the generic
    {!Topology.t} path (robustness tests, ablations) and models the many
    production datacenters built as leaf–spine rather than Fat-Tree. *)

type t

val create :
  ?leaves:int ->
  ?spines:int ->
  ?hosts_per_leaf:int ->
  ?leaf_spine_capacity:float ->
  ?host_capacity:float ->
  unit ->
  t
(** Defaults: 8 leaves, 4 spines, 16 hosts per leaf, 1000 Mbps host links,
    4000 Mbps leaf–spine links (the usual oversubscribed uplink sizing).
    All counts must be positive. *)

val graph : t -> Graph.t
val leaves : t -> int
val spines : t -> int
val host_count : t -> int

val host : t -> int -> int
(** Node id of the i-th host. *)

val to_topology : t -> Topology.t
(** Its interior sets run between leaves: the one empty interior under a
    shared leaf, else one path per spine, in spine order. *)
