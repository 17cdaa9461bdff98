(** The serving driver: one fabric, N planners. {!Serve} is this
    fabric with one shard.

    N shard controllers — each an {!Nu_sched.Engine.Stepper} with its
    own bounded {!Admission} queue and write-ahead {!Journal} — share
    one {!Nu_net.Net_state}. Every tick polls the arrival {!Source},
    routes each request to its home shard through a deterministic
    {!Partition} map, journals each shard's slice write-ahead, admits
    deferred-then-fresh requests, drains a weighted-fair share of the
    fabric budget into each stepper, advances the shards in
    synchronised waves ({!Nu_sched.Engine.Stepper.step_group}) and
    commits the tick with a [Tick_done] marker per journal. Rounds
    whose make-room migration set crosses shard boundaries escalate to
    the global {!Coord}, which two-phase-commits them against the
    shared fabric. The region-to-shard assignment never changes during
    a run.

    With one shard, routing is the identity, waves are single steps,
    the drain is [drain_per_tick] and nothing escalates: the schedule
    is the single controller's, its WAL sits at the journal path
    itself, and no coordinator journal or per-shard watch stream is
    written.

    Determinism contract: same config, topology, net and source spec
    → bit-identical {!digest}; per-shard WALs + the {!Checkpoint}
    chain make a crash — including a torn shard WAL — recoverable to
    the uninterrupted run's digest. Metrics flow through [Nu_obs]
    (serve_* and shard_* counters; [serve.admission_wait_s],
    [serve.queue_depth], [serve.engine_backlog] histograms when the
    registry is enabled). *)

(** {2 Configuration} *)

type config = {
  base : Serve_config.config;  (** Per-shard controller knobs. *)
  shards : int;
  regions : int;
      (** Routing granularity; on pod-major Fat-Tree host numbering,
          [regions = pod count] makes a region a pod. *)
  coord : Coord.config;
}

val default_config : ?regions:int -> Serve_config.config -> shards:int -> config
(** [regions] defaults to [max 8 shards]; default coordinator
    config. *)

val shard_journal_path : string -> int -> string
(** [<base>.shard<k>] — shard [k]'s WAL segment namespace when the
    fabric has two or more shards. One shard journals at [<base>]. With
    two or more shards the coordinator journals its decisions at
    [<base>.coord.jsonl]. *)

val apportion : budget:int -> backlogs:int array -> int array
(** Weighted-fair split of the fabric drain budget: proportional to
    backlog, largest-remainder (ties to the lower shard index), capped
    at each backlog with freed capacity re-dealt round-robin. Pure;
    [sum = min budget (sum backlogs)] and [quota.(k) <= backlogs.(k)].
    With one shard this is [min budget backlog] — exactly the
    single-controller drain cap. *)

(** {2 Lifecycle} *)

type t

val create :
  ?injector:Nu_fault.Injector.t ->
  ?telemetry:Telemetry.t ->
  ?journal:Journal.writer ->
  ?journal_base:string ->
  config ->
  topology:Topology.t ->
  net:Net_state.t ->
  source_spec:Source.spec ->
  t
(** Raises [Invalid_argument] on an invalid configuration or source
    spec, on an [injector] with more than one shard, and on a ready
    [journal] writer with more than one shard or alongside
    [journal_base]. [journal_base] opens one WAL per shard (at
    [journal_base] itself for one shard, under {!shard_journal_path}
    otherwise) plus, with two or more shards, the coordinator journal.

    [telemetry] attaches live serving telemetry ({!Telemetry}):
    lifecycle stamps for every request, per-tenant fairness, and
    periodic OpenMetrics exposition. Recording-only — the
    decision digest is bit-identical with or without it, and it is not
    part of the serving fingerprint (the configuration and source spec
    a checkpoint's [meta] records and a restore checks; [domains] is
    not part of it either — decisions are width-independent). *)

val tick : t -> unit
(** Poll → route → write-ahead per shard → admit → drain → waves →
    commit markers. *)

val run :
  ?checkpoint_path:string -> ?checkpoint_every:int -> t -> ticks:int -> unit
(** [ticks] consecutive {!tick}s. With [checkpoint_path] and
    [checkpoint_every] > 0, saves a chain generation after every
    [checkpoint_every]-th tick. *)

val complete : t -> unit
(** Drain to quiescence (no admissions, deferred, engine work or
    pending coordinator events). Completion ticks poll nothing and
    journal nothing: they are a pure function of fabric state. Raises
    [Failure] past 1_000_000 ticks. *)

val tick_count : t -> int
(** Ticks completed (= the next tick to execute). *)

val shard_count : t -> int
val coord : t -> Coord.t
val stepper : t -> int -> Engine.Stepper.t
val admission : t -> int -> Admission.t

val backlog : t -> int -> int
(** Shard load: admission queue + engine backlog. *)

val deferred_count : t -> int

val completed : t -> int

val shard_digests : t -> string list
(** Per-shard decision digests, shard order. *)

val digest : t -> string
(** {!Run_digest.combine} of the shard digests plus the coordinator
    journal digest (when any coordinator entry exists). A one-shard
    fabric digests exactly like its lone controller. *)

val set_journal : t -> int -> Journal.writer option -> unit
(** Replace shard [k]'s journal writer (closing is the caller's
    concern). *)

val kill_shard_journal : t -> int -> unit
(** Crash-injection helper: abort shard [k]'s WAL writer, leaving a
    torn tail on disk exactly as a mid-write crash would. *)

val close : t -> unit
(** Close steppers, probe pool, journals and the coordinator sink. *)

val retire : t -> Engine.run_result list
(** {!close} plus telemetry retirement (final exposition write,
    lifecycle-stream close) and end-of-life histogram recording;
    returns the per-shard run results. *)

(** {2 Checkpoint / restore / replay} *)

val snapshot : t -> Checkpoint.t
(** Freeze the whole fabric. Call between ticks. [seq] and [parent]
    are left at their defaults — {!Checkpoint.Chain.save} threads them
    from the previous chain generation. *)

val save_checkpoint : t -> path:string -> unit
(** {!snapshot} + {!Checkpoint.Chain.save}: rotate the generations,
    then save atomically and durably. *)

val restore_snapshot :
  config ->
  topology:Topology.t ->
  source_spec:Source.spec ->
  Checkpoint.t ->
  (t, string) result
(** Rebuild the whole fabric from a loaded checkpoint, journals
    detached, telemetry off and a thawed injector on the default retry
    policy. Refuses a fingerprint or shard-count mismatch. *)

val committed : string -> ((int * Request.t list) list, string) result
(** One WAL's committed (tick, arrivals) groups in tick order, read
    tolerantly: corrupt frames are skipped and counted into the
    [store.frames_corrupt] counter. [Error] only for an unreadable
    first segment. *)

val replay_groups :
  t -> (int * Request.t list) list array -> int * string option
(** The one replay loop, over per-shard committed groups: for every
    tick from the fabric's own up to the shards' common commit horizon
    ({!replay}'s [upto] lowers it), re-poll the source, check that every shard's
    routed slice equals its journaled group, and execute the tick with
    the journaled requests. Stops at the first gap (a shard with no
    commit for the tick) or divergence, rewinding the source cursor so
    the remaining ticks can be re-served live and regenerate the exact
    same arrivals. Returns the ticks replayed and the stop reason;
    strict callers turn a stop into an [Error]. *)

val recover :
  ?telemetry:Telemetry.t ->
  config ->
  topology:Topology.t ->
  source_spec:Source.spec ->
  checkpoint_path:string ->
  journal_base:string ->
  (t * int, string) result
(** Crash recovery: restore from the newest checkpoint-chain generation
    that verifies ({!Checkpoint.Chain.fallback}), replay every shard's
    committed ticks (torn WAL tails tolerated, stopping early at a gap
    or divergence), re-roll the per-shard journals as fresh segment
    chains holding exactly the replayed groups, and re-attach
    everything. Returns the fabric and the number of ticks replayed;
    the caller re-serves the remaining horizon live. *)

val replay :
  ?telemetry:Telemetry.t ->
  ?retry:Nu_fault.Retry_policy.t ->
  ?checkpoint_path:string ->
  ?upto:int ->
  config ->
  topology:Topology.t ->
  net:Net_state.t ->
  source_spec:Source.spec ->
  journal_base:string ->
  (t * int, string) result
(** External audit: rebuild a fabric from its journals — cold-starting
    from [net], or restoring the checkpoint at [checkpoint_path]
    (which carries the fault injector of a faulted run) — and strictly
    replay every
    committed tick below [upto]: a gap or divergence is an [Error], as
    is a journal with no commit at all. Returns the fabric (not yet
    drained — call {!complete}) and the tick count replayed. *)
