(** Topology interface consumed by the planner and schedulers.

    A topology is a built graph plus the fabric-specific knowledge the
    update machinery needs: which nodes are hosts, where each host
    attaches, and the ranked candidate path set P(f). Every fabric here
    attaches each host to exactly one switch by one link, so the
    candidates of a host pair (h1, h2) are the access hop up(h1), one
    interior path of the switch pair (s1, s2), and the access hop
    down(h2): the fabric supplies only the interior sets, per switch
    pair. Fabric constructors ({!Fat_tree}, {!Leaf_spine},
    {!Jellyfish}) produce values of this type; everything above this
    layer is fabric-agnostic. *)

type t = private {
  name : string;
  graph : Graph.t;
  hosts : int array;  (** Node ids that can source/sink flows. *)
  switches : int array;  (** Every non-host node. *)
  attach : int array;
      (** Per node id: the switch a host attaches to; [-1] for a
          switch. *)
  up : int array;
      (** Per node id: the edge id from a host to its switch; [-1] for
          a switch. *)
  down : int array;
      (** Per node id: the edge id from its switch to a host; [-1] for
          a switch. *)
  interior_paths : src:int -> dst:int -> int array array;
      (** Ranked interior candidates between two attachment switches,
          each as its edge ids in traversal order; deterministic order,
          typically the ECMP shortest-path set. [[| [||] |]] (one empty
          interior) when [src = dst]. *)
  diameter : int;  (** Maximum host-to-host hop distance D. *)
}

val make :
  name:string ->
  graph:Graph.t ->
  hosts:int array ->
  switches:int array ->
  interior_paths:(src:int -> dst:int -> int array array) ->
  diameter:int ->
  t
(** Build the attachment arrays from the graph: a host's one link
    names its switch and its two access edges. Raises
    [Invalid_argument] when a host does not have exactly one outgoing
    edge, or its switch has no edge back to it. {!Graph.add_link}
    adds both directions, so the second holds for every graph today;
    it is checked here so that a one-way access link would fail at
    construction rather than at the first candidate lookup. *)

val host_count : t -> int

val is_host : t -> int -> bool
(** [attach.(v) >= 0]. *)

val validate : t -> (unit, string) result
(** Structural sanity: hosts and switches partition the node range, and
    every ordered pair of attachment switches has at least one interior
    candidate, each of which connects the pair. Intended for custom
    user-built topologies; cost is one interior-set call per switch
    pair. *)

val pp : Format.formatter -> t -> unit
