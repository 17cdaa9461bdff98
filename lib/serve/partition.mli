(** Deterministic region-keyed partition map: which shard controller
    owns which slice of the fabric.

    Hosts fold into [regions] contiguous blocks (pod-major host
    numbering makes a region a pod on the Fat-Tree topologies); each
    region is owned by exactly one shard. Routing is a pure function
    of the event and the current assignment — total (every event has
    exactly one home) and stable (independent of arrival order), which
    is what lets an N-shard journal replay reproduce the same split a
    live run produced. The per-region arrival counters and {!move}
    are part of the frozen state, but they no longer feed the fabric:
    {!Shard_fabric} never counts arrivals or moves a region, so its
    assignment stays the initial one. *)

type t

val create : host_count:int -> regions:int -> shards:int -> t
(** Initial assignment: region [r] -> shard [r*shards/regions]
    (contiguous balanced blocks). Raises [Invalid_argument] unless
    [host_count >= regions >= shards >= 1]. *)

val host_count : t -> int
val regions : t -> int
val shards : t -> int

val generation : t -> int
(** Number of {!move}s applied so far. *)

val region_of_host : t -> int -> int
(** [host * regions / host_count] — contiguous blocks. *)

val shard_of_region : t -> int -> int

val home_region_of_event : t -> Event.t -> int
(** The event's home region: the first [Install]'s source host keys
    it; a [Reroute]-only event keys on the rerouted flow id. A pure
    function of the event — never of arrival history. *)

val home_of_event : t -> Event.t -> int
(** [shard_of_region] of [home_region_of_event]. *)

val note_arrival : t -> region:int -> unit
(** Count one arrival against [region]. *)

val owned : t -> int -> int
(** Number of regions a shard currently owns. *)

val regions_of : t -> int -> int list

val move : t -> region:int -> to_shard:int -> unit
(** Reassign [region], bump the generation and reset every arrival
    counter. *)

(** {2 Freeze / thaw} *)

type frozen = {
  fz_assign : int list;
  fz_arrivals : int list;
  fz_generation : int;
}

val freeze : t -> frozen

val thaw : host_count:int -> regions:int -> shards:int -> frozen -> t
(** Raises [Invalid_argument] on a shape mismatch with the frozen
    assignment. *)

val frozen_to_json : frozen -> Nu_obs.Json.t
val frozen_of_json : Nu_obs.Json.t -> (frozen, string) result
val to_json : t -> Nu_obs.Json.t
