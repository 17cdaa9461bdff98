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

val paths : t -> src:int -> dst:int -> Path.t list
(** Candidate paths between host node ids: the single intra-leaf path, or
    one path per spine for inter-leaf pairs. *)

val to_topology : t -> Topology.t
