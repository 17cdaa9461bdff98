(** Recovery log: every abort/retry/degrade/evacuation decision the
    engine makes under fault, in order, with a stable digest.

    Determinism is an acceptance criterion, not an aspiration: two runs
    with the same fault seed must produce bit-identical recovery
    behaviour. The digest (FNV-1a over the decision stream) makes that
    checkable in one string comparison, the same way the scheduler bench
    digests run results. Recording also feeds the {!Nu_obs.Counters}
    fault keys, so counter snapshots pick the recovery work up for
    free. *)

type decision =
  | Fault_applied of { at_s : float; tag : int; subject : int }
      (** One schedule entry interpreted against the live state
          ([tag]/[subject] from {!Fault_model.action_tag}/[subject]). *)
  | Migration_aborted of { event_id : int; at_s : float; attempt : int }
      (** An in-flight event's round was undone by transaction
          rollback; [attempt] counts this event's aborts so far. *)
  | Retry_scheduled of { event_id : int; ready_s : float; attempt : int }
      (** The aborted event re-enters the queue at [ready_s]. *)
  | Event_degraded of { event_id : int; at_s : float }
      (** Retry budget exhausted; executed best-effort instead. *)
  | Flow_evacuated of { flow_id : int; at_s : float; dropped : bool }
      (** A placed flow was moved off failed capacity ([dropped] when no
          enabled path could take it and it was removed instead). *)
  | Invariant_violated of { at_s : float; name : string }

type t
(** Mutable, append-only. *)

val create : unit -> t

val record : t -> decision -> unit
(** Append and bump the matching counter ([Faults_injected],
    [Migrations_aborted], [Retries], [Events_degraded]). *)

type stats = {
  faults_applied : int;
  aborts : int;
  retries : int;
  degraded : int;
  evacuated : int;  (** Rerouted off failed capacity. *)
  dropped : int;  (** Removed: no enabled path survived. *)
  violations : int;
}

val stats : t -> stats

val digest : t -> string
(** FNV-1a (64-bit, hex) over the ordered decision stream. Two runs are
    behaviourally identical under fault iff their digests match. An
    empty log digests to the FNV offset basis. *)

val stats_to_json : t -> Nu_obs.Json.t
(** Stats plus digest — the "recovery" object of run reports. *)
