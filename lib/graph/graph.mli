(** Directed capacitated multigraph.

    This is the paper's network model G = (V, E): V is a set of switches
    (and hosts), E a set of links with capacity c_ij. Nodes and edges are
    dense integer ids so that per-edge state (residual bandwidth, flow
    lists) can live in flat arrays owned by higher layers ({!Nu_net}).

    The structure is append-only: topologies are built once and never
    shrink. Link failure is modelled by higher layers as an edge filter,
    not by mutation, which keeps a single graph shareable across
    concurrent what-if computations.

    Storage is a flat CSR (compressed sparse row) layout: edge
    attributes live in struct-of-arrays columns indexed by edge id, and
    adjacency is an offsets-plus-edge-ids array pair rebuilt lazily
    after appends. {!iter_out}/{!src}/{!dst}/{!capacity} read
    it without allocating; {!out_edges}/{!in_edges} materialise the
    historical record-list view on demand. Call {!freeze} after the last
    append before sharing a graph across domains — the lazy rebuild is
    not domain-safe, reads of a frozen graph are. *)

type t

type edge = private {
  id : int;  (** Dense id in [0, edge_count). *)
  src : int;
  dst : int;
  capacity : float;  (** Link capacity, Mbit/s. *)
}

val create : ?initial_nodes:int -> unit -> t
(** Fresh empty graph. [initial_nodes] pre-declares that many nodes. *)

val add_link : t -> a:int -> b:int -> capacity:float -> int * int
(** Append a network link: the two directed edges a->b then b->a, and
    return both ids. Requires both endpoints to exist and
    [capacity >= 0]. Parallel links are allowed. *)

val node_count : t -> int
val edge_count : t -> int

val edge : t -> int -> edge
(** Edge by id. Raises [Invalid_argument] on an out-of-range id. *)

val src : t -> int -> int
(** Source node of an edge id — O(1) flat-array read, no allocation. *)

val dst : t -> int -> int
(** Destination node of an edge id — O(1) flat-array read. *)

val capacity : t -> int -> float
(** Capacity of an edge id — O(1) flat-array read. *)

val iter_out : t -> int -> (int -> unit) -> unit
(** [iter_out t v f] applies [f] to each outgoing edge id of [v] in
    insertion order, straight off the CSR row — no allocation. *)

val freeze : t -> unit
(** Force the lazy CSR rebuild now. Required once after the final
    append before the graph is read from multiple domains. *)

val out_edges : t -> int -> edge list
(** Outgoing edges of a node, in insertion order. *)

val in_edges : t -> int -> edge list
(** Incoming edges of a node, in insertion order. *)

val find_edge : t -> src:int -> dst:int -> int
(** Id of the first-inserted edge from [src] to [dst], or [-1] when
    there is none. Allocation-free. *)

val fold_edges : t -> init:'a -> f:('a -> edge -> 'a) -> 'a

val reverse_edge : t -> edge -> edge option
(** The paired opposite-direction edge, if one exists (first match). *)

val pp : Format.formatter -> t -> unit
(** One-line size summary. *)
