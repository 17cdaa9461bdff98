(** Bounded admission queue with backpressure and per-tenant fairness.

    The online controller's front door: arriving requests are offered
    to a bounded queue, and a full queue defers the arrival to the next
    tick ({!Deferred}); no request is ever dropped. Draining is fair
    across tenants — one request per tenant per rotation sweep — so a
    single chatty tenant cannot starve the others regardless of arrival
    interleaving (the serving-layer complement of LMTF's per-event
    fairness).

    Deterministic by construction: rotation order is tenant first-seen
    order, every decision depends only on prior offers/drains, and
    {!freeze}/{!thaw} capture the full state for checkpointing. *)

type policy =
  | Block
      (** Full queue defers the request to the next tick; the only
          policy. The configuration keeps the field, and checkpoint
          fingerprints record it as ["block"]. *)

type t

val create : capacity:int -> t
(** Raises [Invalid_argument] on non-positive capacity. *)

val size : t -> int
(** Requests currently queued across all tenants. *)

type outcome =
  | Admitted
  | Deferred  (** The queue is full: try again next tick. *)

val offer : t -> tick:int -> Request.t -> outcome
(** Offer one request, recording [tick] as its enqueue instant for
    admission-latency accounting. Updates per-tenant statistics; a
    deferred offer still makes its tenant known to them. *)

val drain : t -> max:int -> (Request.t * int) list
(** Dequeue up to [max] requests fairly (round-robin across tenants in
    rotation order, one per tenant per sweep). Each result carries the
    tick recorded at {!offer} time. Raises [Invalid_argument] on
    negative [max]. *)

val tenant_stats : t -> (string * (int * int)) list
(** Per tenant (sorted): (admitted, drained) counts. *)

(** {2 Checkpoint freeze/thaw} *)

type frozen = {
  fz_next_seq : int;
  fz_tenants : string list;  (** Rotation order at freeze time. *)
  fz_queues : (string * (int * int * Request.t) list) list;
      (** Per tenant in rotation order; entries (seq, enq_tick,
          request) in queue order. *)
  fz_stats : (string * (int * int)) list;
      (** Tenant-sorted (admitted, drained). *)
}

val freeze : t -> frozen

val thaw : capacity:int -> frozen -> t
(** Rebuild with the original capacity; future offers and drains
    behave bit-identically to the frozen original. *)
