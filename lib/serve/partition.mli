(** Deterministic region-keyed partition map: which shard controller
    owns which slice of the fabric.

    Hosts fold into [regions] contiguous blocks (pod-major host
    numbering makes a region a pod on the Fat-Tree topologies); each
    region is owned by exactly one shard. The map is a pure function of
    [host_count], [regions] and [shards], and routing is a pure
    function of the event and the map — total (every event has exactly
    one home) and stable (independent of arrival order), which is what
    lets an N-shard journal replay reproduce the same split a live run
    produced. A restore rebuilds it from the checkpoint's fingerprint,
    so checkpoints carry no partition state. *)

type t

val create : host_count:int -> regions:int -> shards:int -> t
(** Region [r] -> shard [r*shards/regions] (contiguous balanced
    blocks). Raises [Invalid_argument] unless
    [host_count >= regions >= shards >= 1]. *)

val region_of_host : t -> int -> int
(** [host * regions / host_count] — contiguous blocks. *)

val shard_of_region : t -> int -> int

val home_of_event : t -> Event.t -> int
(** The shard owning the event's home region: the first [Install]'s
    source host keys it; a [Reroute]-only event keys on the rerouted
    flow id. *)
