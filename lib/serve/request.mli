(** One tenant-attributed update request.

    The online controller serves update events on behalf of named
    tenants; the tenant label drives per-tenant admission quotas and
    fair draining, and is carried through the journal so replay
    reconstructs the same accounting. *)

type t = { tenant : string; event : Event.t }

val v : tenant:string -> Event.t -> t
(** Raises [Invalid_argument] on an empty tenant label. *)

val event_id : t -> int
