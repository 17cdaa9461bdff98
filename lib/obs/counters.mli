(** Counter registry for the planner/scheduler pipeline.

    One set of integer counters covering the pipeline's units of work —
    planner probes, migration moves, clear attempts, state copies,
    service rounds. [incr]/[add] are single array stores, cheap enough
    to leave permanently enabled on hot paths (unlike {!Trace} spans,
    which are gated on an installed sink).

    The registry is {e domain-local}: every function below reads and
    writes the calling domain's store, so concurrent domains never
    contend. A probe worker domain accumulates into its own store,
    {!drain}s it on exit, and the spawning domain {!absorb}s the deltas
    after the join — in domain-spawn order, making the merged totals
    deterministic and (the sums being commutative) independent of how
    the probes were distributed across domains.

    Scoped measurement works by snapshot/diff: take a {!snapshot}
    before the region of interest and [diff] it against one taken
    after. *)

type key =
  | Planner_plans  (** Applied plans ({!Nu_update.Planner.plan} calls). *)
  | Planner_probes  (** Feasibility probes (summed plan work units). *)
  | Cost_estimates
      (** Plan-and-roll-back probes ({!Nu_update.Planner.probe}). *)
  | Migration_moves  (** Make-room flow relocations committed. *)
  | Clear_attempts  (** {!Nu_update.Migration.clear_path} invocations. *)
  | Path_enumerations
      (** Candidate views built ({!Nu_net.Net_state.candidates} calls):
          one per planned install or reroute item, per routed placement
          (the churn refill, the background fill, fault evacuation) and
          per migration pick that can move. A pick whose access hop
          lies on the cleared path cannot move and builds none. *)
  | State_copies  (** {!Nu_net.Net_state.copy} calls. *)
  | Engine_rounds  (** Service rounds executed (both abstractions). *)
  | Events_executed
      (** Events completed by service rounds; a flow-level run counts
          one per flow. *)
  | Co_scheduled_events  (** P-LMTF opportunistic co-executions. *)
  | Churn_placements  (** Background flows re-admitted by churn. *)
  | Txn_rollbacks  (** {!Nu_net.Net_state.rollback} calls (probe undos). *)
  | Txn_commits  (** Outermost {!Nu_net.Net_state.commit} calls. *)
  | Plan_replays  (** Winner plans re-applied via {!Nu_update.Planner.replay}. *)
  | Estimate_cache_hits
      (** Always 0: the estimate cache is deleted. Kept because the
          benchmark reads it. *)
  | Estimate_cache_misses  (** Always 0, as {!Estimate_cache_hits}. *)
  | Faults_injected  (** Fault-schedule events applied by the injector. *)
  | Migrations_aborted
      (** In-flight rounds undone by a fault (txn rollback per event). *)
  | Retries  (** Aborted events re-queued under the retry policy. *)
  | Events_degraded
      (** Events past the retry budget, executed best-effort. *)
  | Invariant_checks  (** {!Nu_fault.Invariant} full-state checks run. *)
  | Serve_ticks  (** Online-controller ticks processed. *)
  | Serve_admitted  (** Requests accepted into the admission queue. *)
  | Serve_shed
      (** Always 0: admission only defers, it never rejects. Kept
          because the benchmark reads it. *)
  | Serve_deferred
      (** Admission attempts deferred to the next tick (Block policy). *)
  | Serve_drained  (** Requests handed from admission to the engine. *)
  | Serve_checkpoints  (** Durable checkpoints written. *)
  | Probe_parallel_batches
      (** Candidate-probe batches fanned out across worker domains. *)
  | Domain_probes
      (** Probes evaluated inside worker domains (cache misses of
          parallel batches). *)
  | Shard_escalations
      (** Wave rounds whose winner was handed to the global coordinator
          (cross-shard migration set). *)
  | Shard_wave_replans
      (** Wave winners invalidated by an earlier commit of the same
          wave and re-planned live. *)
  | Shard_coord_commits  (** Escalated events the coordinator committed. *)
  | Shard_coord_aborts
      (** Always 0: the coordinator's participant veto is gone. Kept
          because the benchmark reports it as [shard.coord_aborts]. *)
  | Shard_coord_degraded
      (** Always 0: the coordinator's retry-then-degrade path is gone.
          Kept because the benchmark reads it. *)
  | Shard_rebalances
      (** Always 0: the fabric's hot-shard rebalance is gone. Kept
          because the benchmark reports it as [shard.rebalances]. *)

val incr : key -> unit

val add : key -> int -> unit

val get : key -> int
(** Current live value. *)

(** {2 Dynamic named counters}

    Subsystems whose counter set is not known statically (telemetry
    sinks, plugins) register counters by name on first increment. Named
    counters share the registry's snapshot/diff machinery; names are
    dot-namespaced snake_case ["telemetry.expo_writes"]-style strings. *)

val incr_named : string -> unit
val add_named : string -> int -> unit
(** Create-on-first-use. Raise [Invalid_argument] on an empty name. *)

val get_named : string -> int
(** Current live value; 0 for a name never incremented. *)

type snapshot
(** Immutable copy of all counter values — fixed keys and named
    counters — at one instant. *)

val snapshot : unit -> snapshot

val drain : unit -> snapshot
(** {!snapshot}, then zero every fixed counter and drop every named
    counter, atomically from the calling domain's point of view: a
    worker domain's parting gift, to be {!absorb}ed by the domain that
    joins it. *)

val absorb : snapshot -> unit
(** Add a drained snapshot's values into the calling domain's counters.
    Raises [Invalid_argument] on a fixed-size mismatch. *)

val diff : before:snapshot -> after:snapshot -> snapshot
(** Per-key [after - before]: the counts attributable to the region
    between the two snapshots. Named counters diff over the {e union}
    of both snapshots' names — a counter first created after [before]
    was taken diffs against an implicit 0 rather than being dropped. *)

val value : snapshot -> key -> int

val to_alist : snapshot -> (string * int) list
(** All fixed keys in declaration order (including zeros), each under
    its stable snake_case name, then named counters sorted by name. *)

val to_json : snapshot -> Json.t
(** Object mapping each {!to_alist} name to its value. *)

val pp_table : Format.formatter -> snapshot -> unit
(** Two-column name/value table. *)
