(** Bounded admission queue with backpressure and per-tenant fairness.

    The online controller's front door: arriving requests are offered
    to a bounded queue; what happens when the queue is full is the
    {!policy}. Draining is fair across tenants — one request per tenant
    per rotation sweep — so a single chatty tenant cannot starve the
    others regardless of arrival interleaving (the serving-layer
    complement of LMTF's per-event fairness).

    Deterministic by construction: rotation order is tenant first-seen
    order, every decision depends only on prior offers/drains, and
    {!freeze}/{!thaw} capture the full state for checkpointing. *)

type policy =
  | Block  (** Full queue defers the request to the next tick. *)
  | Drop_newest  (** Full queue sheds the arriving request. *)
  | Drop_oldest
      (** Full queue evicts the globally oldest queued request, then
          admits the arrival. *)
  | Tenant_quota of int
      (** Per-tenant queue cap; a tenant at its quota sheds regardless
          of global occupancy, a full queue sheds like [Drop_newest]. *)

val policy_name : policy -> string
(** ["block"], ["drop-newest"], ["drop-oldest"], ["tenant-quota(N)"]. *)

val policy_of_name : string -> (policy, string) result
(** Inverse of {!policy_name} (case-insensitive). *)

type t

val create : capacity:int -> policy:policy -> t
(** Raises [Invalid_argument] on non-positive capacity or quota. *)

val size : t -> int
(** Requests currently queued across all tenants. *)

type outcome =
  | Admitted
  | Shed of string  (** Reason: ["capacity"] or ["tenant-quota"]. *)
  | Deferred  (** Try again next tick (Block policy only). *)

val offer : t -> tick:int -> Request.t -> outcome
(** Offer one request, recording [tick] as its enqueue instant for
    admission-latency accounting. Updates per-tenant statistics. *)

val drain : t -> max:int -> (Request.t * int) list
(** Dequeue up to [max] requests fairly (round-robin across tenants in
    rotation order, one per tenant per sweep). Each result carries the
    tick recorded at {!offer} time. Raises [Invalid_argument] on
    negative [max]. *)

val tenant_stats : t -> (string * (int * int * int)) list
(** Per tenant (sorted): (admitted, shed, drained) counts. *)

(** {2 Checkpoint freeze/thaw} *)

type frozen = {
  fz_next_seq : int;
  fz_tenants : string list;  (** Rotation order at freeze time. *)
  fz_queues : (string * (int * int * Request.t) list) list;
      (** Per tenant in rotation order; entries (seq, enq_tick,
          request) in queue order. *)
  fz_stats : (string * (int * int * int)) list;  (** Tenant-sorted. *)
}

val freeze : t -> frozen

val thaw : capacity:int -> policy:policy -> frozen -> t
(** Rebuild with the original configuration; future offers and drains
    behave bit-identically to the frozen original. *)
