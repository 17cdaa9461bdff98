(** Bounded-restart supervision for the serving loop.

    The supervisor runs {!Serve} to a target tick under storage-fault
    pressure. Every simulated death ({!Nu_obs.Store_fault.Crash} or
    any other escape) is classified, logged, charged an exponential
    backoff with PRNG jitter (recorded, never slept), and answered
    with a recovery attempt:

    + load the newest {e verifiable} checkpoint-chain generation
      (content hash + fingerprint checked), falling back to older
      ancestors,
    + tolerantly replay the surviving journal's clean committed prefix
      past the checkpoint,
    + if no generation verifies (or the fingerprint is refused), cold
      start from tick 0 with a fresh net and replay the journal from
      segment 0 — the deterministic source regenerates anything the
      journal lost,
    + re-roll the journal (rewrite the clean prefix, drop corruption),
      re-attach it, and keep serving.

    Restarting more than [max_restarts] times gives up with a partial
    {!outcome}. The whole supervision history digests to a single
    [recovery_digest] in the style of {!Nu_fault.Recovery}. Counters:
    [supervisor.restarts], [recovery.fallback_depth],
    [store.frames_corrupt] (named registry); histograms
    [supervisor.backoff_s], [recovery.fallback_depth]. *)

type config = {
  max_restarts : int;
  backoff_base_s : float;
  backoff_factor : float;
  backoff_max_s : float;
  backoff_jitter : float;  (** Relative jitter amplitude in [0, 1]. *)
  keep : int;  (** Checkpoint-chain generations retained. *)
  checkpoint_every : int;  (** Chain save period in ticks (0 = only final). *)
}

val default_config : config
(** 16 restarts, 50 ms base doubling to a 5 s cap, 25% jitter,
    chain keep 2, checkpoint every 10 ticks. *)

type failure_class =
  | Crash_injected  (** A {!Nu_obs.Store_fault.Crash}. *)
  | Corrupt_store
  | Fingerprint_mismatch
  | Invariant_violation
  | Io_error
  | Unknown

val class_name : failure_class -> string
val classify : exn -> failure_class

type event =
  | Started of {
      attempt : int;
      from_tick : int;
      fallback_depth : int;
          (** Chain generation restored (0 = newest, [keep]+1 = cold). *)
      replayed : int;
    }
  | Failed of {
      attempt : int;
      at_tick : int;
      cls : failure_class;
      reason : string;
    }
  | Backoff of { attempt : int; delay_s : float }
  | Cold_start of { attempt : int; reason : string }
  | Completed of { ticks : int; restarts : int }
  | Gave_up of { restarts : int }

val event_to_json : event -> Nu_obs.Json.t

val log_digest : event list -> string
(** FNV-1a digest of the supervision history (16 hex digits): event
    kinds, attempts, ticks, failure classes, fallback depths, replay
    counts and backoff delays. Reason text is left out, so the digest
    is a function of the seeds, not of the storm directory. *)

type outcome = {
  digest : string option;
      (** Final decision digest; [None] when the supervisor gave up. *)
  ticks : int;
  restarts : int;
  gave_up : bool;
  corrupt_frames : int;
      (** Corrupt journal frames skipped across all recoveries. *)
  events : event list;
  recovery_digest : string;
}

val outcome_to_json : outcome -> Nu_obs.Json.t
(** The recovery-log artifact for the crash-storm harness. *)

val run :
  ?sup:config ->
  ?source_params:Benson_trace.params ->
  ?retry:Nu_fault.Retry_policy.t ->
  ?fault:Nu_obs.Store_fault.t ->
  jitter_seed:int ->
  serve_config:Serve.config ->
  source_spec:Source.spec ->
  topology:Topology.t ->
  fresh_net:(unit -> Net_state.t) ->
  journal_path:string ->
  checkpoint_path:string ->
  ticks:int ->
  unit ->
  outcome
(** Serve [ticks] ticks under supervision, then drain to quiescence.
    [fresh_net] must rebuild the deterministic initial network (it is
    called once per cold start). The final chain generation is saved
    at exactly the target tick, so an external
    [restore + replay + complete] audit of the on-disk state
    reproduces [digest] bit-for-bit. Deterministic: same arguments
    (including the fault plan state) give the same outcome. *)
