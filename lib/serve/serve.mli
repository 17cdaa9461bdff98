(** Online update controller: the batch {!Nu_sched.Engine} turned into
    a long-running service — the one-shard {!Shard_fabric}.

    The controller advances in discrete {e ticks}. Each tick:

    + polls the arrival {!Source} for requests surfacing now,
    + journals them write-ahead (when a {!Journal.writer} is attached),
    + offers deferred-then-fresh requests to the bounded {!Admission}
      queue (shedding or deferring per policy),
    + drains up to [drain_per_tick] requests fairly across tenants and
      submits their events to the incremental engine stepper,
    + executes up to [steps_per_tick] service rounds,
    + commits the tick with a [Tick_done] journal marker.

    All of it is the fabric's driver with one shard: this module holds
    no tick, checkpoint or replay code of its own, and its checkpoints
    are {!Checkpoint} chain generations like any fabric's.

    Everything is deterministic: same config, topology, net and source
    spec → bit-identical decision digest, and {!save_checkpoint}/
    {!restore}/{!replay} reproduce an interrupted run's digest exactly. *)

(** {2 Configuration} *)

include module type of struct
  include Serve_config
end

(** {2 Lifecycle} *)

type t = Shard_fabric.t
(** The one-shard fabric: {!Shard_fabric}'s inspection functions
    ([snapshot], [admission t 0], [completed]) read it. *)

val create :
  ?telemetry:Telemetry.t ->
  ?journal:Journal.writer ->
  config ->
  topology:Topology.t ->
  net:Net_state.t ->
  source_spec:Source.spec ->
  t
(** Raises [Invalid_argument] on invalid configuration (non-positive
    drain/steps/dt, flow-level policy, bad churn spec) or source spec.

    [telemetry] attaches live serving telemetry ({!Telemetry}):
    lifecycle stamps for every request, per-tenant fairness, and
    periodic OpenMetrics exposition. Recording-only — the
    decision digest is bit-identical with or without it, and it is not
    part of the checkpoint fingerprint. *)

val tick : t -> unit
(** Run one full tick (poll → journal → admit → drain → step → commit). *)

val run : ticks:int -> t -> unit
(** [ticks] consecutive {!tick}s. *)

val complete : t -> unit
(** Drain to quiescence: tick (without polling the source or writing
    the journal) until the admission queue, deferral list and engine
    are all empty. Deterministic given the controller state, which is
    why these ticks need no journal. Raises [Failure] if quiescence is
    not reached within 1_000_000 ticks. *)

(** {2 Inspection} *)

val tick_count : t -> int
(** Ticks completed (= the next tick to execute). *)

val result : t -> Engine.run_result
(** Rounds executed so far (pure; see {!Engine.Stepper.result}). *)

val digest : t -> string
(** {!Run_digest.of_run} of {!result} — the bit-exact decision
    fingerprint used by the replay and crash-recovery guarantees. *)

val retire : t -> Engine.run_result
(** {!result} plus end-of-life histogram recording
    ({!Engine.record_event_histograms}), probe-worker shutdown
    ({!Engine.Stepper.close}), a final telemetry exposition write +
    lifecycle-stream close ({!Telemetry.on_retire}), and journal
    close. *)

val set_journal : t -> Journal.writer option -> unit
(** Replace the journal writer (closing is the caller's concern). *)

(** {2 Checkpoint, restore, replay} *)

val save_checkpoint :
  ?fault:Nu_obs.Store_fault.t -> t -> string -> string
(** {!Shard_fabric.snapshot} + {!Checkpoint.Chain.save}: rotates the chain
    generations, saves atomically and durably, and returns the new
    checkpoint's content hash. *)

val restore_snapshot :
  config:config ->
  source_spec:Source.spec ->
  topology:Topology.t ->
  Checkpoint.t ->
  (t, string) result
(** Rebuild a controller from an already-loaded (and verified)
    checkpoint — the chain-fallback path. Same validation as
    {!restore}. *)

val restore :
  config:config ->
  source_spec:Source.spec ->
  topology:Topology.t ->
  string ->
  (t, string) result
(** Load a checkpoint file and rebuild a controller that continues
    bit-identically. [config], [source_spec] and [topology] must be
    the ones the original run was created with — the checkpoint's
    serving fingerprint is validated and a mismatch is an
    [Error]. The restored controller has no journal attached (see
    {!set_journal}). *)

val replay_prefix : t -> Journal.entry list -> int * string option
(** Tolerant replay for recovery: re-drive the longest clean prefix of
    committed ticks and stop at the first gap or divergence (a corrupt
    frame ate something there), returning the stop reason. The source
    cursor is rewound to its pre-poll state on a stop, so the
    remaining ticks can be re-served live and regenerate the exact
    same arrivals. *)

val replay : journal:string -> t -> (int, string) result
(** Re-drive a restored controller from its operation journal: for
    every committed tick at or after the controller's current tick,
    re-poll the source — validating
    that it regenerates exactly the journaled arrivals — and execute
    the tick with the journaled requests. Trailing uncommitted
    arrivals (crash mid-tick) are ignored; the deterministic source
    will regenerate them when serving resumes. The journal is read
    tolerantly (corrupt frames are skipped and counted into the
    [store.frames_corrupt] counter) but replayed strictly. Returns the
    number of ticks replayed. *)
