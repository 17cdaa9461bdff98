(** k-ary Fat-Tree datacenter fabric (Leiserson; Al-Fares et al. layout).

    The paper's testbed: an 8-pod Fat-Tree with 1 Gbps links — 5k²/4
    switches and k³/4 servers for parameter k. The fabric is three-layered:

    - (k/2)² core switches;
    - k pods, each with k/2 aggregation and k/2 edge switches, connected
      as a complete bipartite graph inside the pod;
    - each edge switch attaches k/2 hosts;
    - aggregation switch j of every pod uplinks to core switches
      [j·k/2, (j+1)·k/2).

    All shortest paths are computed analytically (not by search): 1 path
    for same-edge pairs, k/2 paths for same-pod pairs and (k/2)² paths
    for inter-pod pairs — the ECMP set the paper's planner draws
    candidate paths P(f) from. *)

type t

val create : ?k:int -> unit -> t
(** [create ~k ()] builds the fabric. [k] must be a positive even
    integer (default 8, the paper's setting); every link carries
    1000 Mbit/s (1 Gbps). *)

val k : t -> int

(** Node-id accessors. All indices are range-checked. Core switches are
    nodes [0, (k/2)²); hosts follow every switch, numbered edge-major. *)

val aggregation : t -> pod:int -> int -> int
(** [aggregation t ~pod j] with [pod] in [0,k), [j] in [0, k/2). *)

val edge : t -> pod:int -> int -> int
(** [edge t ~pod j], same ranges as {!aggregation}. *)

val to_topology : t -> Topology.t
(** Adapt to the generic {!Topology.t} interface. Its interior sets run
    between edge switches: the one empty interior under a shared edge
    switch, k/2 paths (one per aggregation switch) inside a pod and
    (k/2)² paths (aggregation-major, then core) between pods. *)
