(** Arrival processes for the online controller.

    Two shapes, one interface:

    - {b Synthetic}: a seeded Poisson arrival process — each tick draws
      a Poisson-distributed number of update events, each carrying
      Benson-marginal install flows between uniformly drawn distinct
      hosts, attributed to tenants round-robin. Fully deterministic
      (every draw comes from one SplitMix64 stream), and therefore
      regenerable after a crash: a thawed source replays the exact
      arrivals the crashed run produced.
    - {b Stream}: a JSONL command file, one
      [{"tick": N, "tenant": "...", "event": {...}}] object per line,
      tick-sorted. Commands surface when the controller reaches their
      tick; events are re-stamped to the surfacing instant. Positional,
      so also deterministic and freezable (by cursor). *)

type spec =
  | Synthetic of {
      seed : int;
      rate_per_tick : float;  (** Mean events per tick. *)
      flows_per_event : int;
      tenants : string list;  (** Round-robin attribution; non-empty. *)
      first_event_id : int;
      first_flow_id : int;
    }
  | Stream of string  (** Path to the JSONL command file. *)

type t

val create : host_count:int -> spec -> t
(** Synthetic flows draw Benson marginals with elephants capped at
    100 Mbps demand — the batch scenario's update-flow parameters.
    Raises [Invalid_argument] on bad parameters, an unreadable or
    malformed command file, an installed flow whose [src] or [dst] is
    outside [\[0, host_count)], or out-of-order ticks. A command-file
    error names the file and line. *)

val poll : t -> tick:int -> now_s:float -> Request.t list
(** The requests surfacing at [tick], events stamped [arrival_s =
    now_s]. Advances the source cursor — deterministic, not
    idempotent. *)

(** {2 Checkpoint freeze/thaw} *)

type frozen =
  | F_synthetic of {
      rng : int64;
      next_event_id : int;
      next_flow_id : int;
      tenant_cursor : int;
    }
  | F_stream of { pos : int }

val freeze : t -> frozen

val thaw : host_count:int -> spec -> frozen -> t
(** Rebuild from the same [spec] the original was created with; future
    {!poll}s produce bit-identical arrivals. Raises [Invalid_argument]
    when the frozen shape does not match the spec. *)

val frozen_to_json : frozen -> Nu_obs.Json.t
val frozen_of_json : Nu_obs.Json.t -> (frozen, string) result
