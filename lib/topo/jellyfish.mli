(** Jellyfish: a random regular-graph datacenter fabric (Singla et al.,
    NSDI 2012).

    Unlike the Fat-Tree and leaf–spine, Jellyfish has no analytic ECMP
    structure: switches form a random r-regular graph and each candidate
    path set P(f) must be *searched*. This fabric therefore exercises the
    generic path machinery ({!Yen} k-shortest paths per switch pair)
    under the same update planner and schedulers — demonstrating
    that nothing in the event-level stack depends on Fat-Tree structure.

    Construction is the standard stub-matching of an r-regular graph with
    bounded retries and edge-swap fix-ups, fully deterministic in the
    supplied seed. *)

type t

val create :
  ?switches:int ->
  ?ports_per_switch:int ->
  ?inter_switch_ports:int ->
  ?link_capacity:float ->
  ?candidate_paths_per_pair:int ->
  seed:int ->
  unit ->
  t
(** Defaults: 20 switches with 8 ports each, 4 of them inter-switch
    (so 4 hosts per switch = 80 hosts), 1000 Mbps links, 6 candidate
    paths per switch pair. Requirements: [0 < inter_switch_ports <
    ports_per_switch], [switches > inter_switch_ports], and
    [switches * inter_switch_ports] even. Raises [Failure] if a connected
    regular graph cannot be built in the retry budget (practically only
    for adversarial parameters). *)

val graph : t -> Graph.t
val switch_count : t -> int
val host_count : t -> int

val host : t -> int -> int
(** Node id of the i-th host. *)

val to_topology : t -> Topology.t
(** Its interior sets run between switches: the one empty interior under
    a shared switch, else the k shortest loopless switch paths, searched
    on every call (the network state keeps the memo). *)
