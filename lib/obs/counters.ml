type key =
  | Planner_plans
  | Planner_probes
  | Cost_estimates
  | Migration_moves
  | Clear_attempts
  | Path_enumerations
  | State_copies
  | Engine_rounds
  | Events_executed
  | Co_scheduled_events
  | Churn_placements
  | Txn_rollbacks
  | Txn_commits
  | Plan_replays
  | Estimate_cache_hits
  | Estimate_cache_misses
  | Faults_injected
  | Migrations_aborted
  | Retries
  | Events_degraded
  | Invariant_checks
  | Serve_ticks
  | Serve_admitted
  | Serve_shed
  | Serve_deferred
  | Serve_drained
  | Serve_checkpoints
  | Probe_parallel_batches
  | Domain_probes
  | Shard_escalations
  | Shard_wave_replans
  | Shard_coord_commits
  | Shard_coord_aborts
  | Shard_coord_degraded
  | Shard_rebalances
  | Recovery_fallback_depth
  | Store_frames_corrupt
  | Supervisor_restarts
  | Telemetry_expo_writes

let index = function
  | Planner_plans -> 0
  | Planner_probes -> 1
  | Cost_estimates -> 2
  | Migration_moves -> 3
  | Clear_attempts -> 4
  | Path_enumerations -> 5
  | State_copies -> 6
  | Engine_rounds -> 7
  | Events_executed -> 8
  | Co_scheduled_events -> 9
  | Churn_placements -> 10
  | Txn_rollbacks -> 11
  | Txn_commits -> 12
  | Plan_replays -> 13
  | Estimate_cache_hits -> 14
  | Estimate_cache_misses -> 15
  | Faults_injected -> 16
  | Migrations_aborted -> 17
  | Retries -> 18
  | Events_degraded -> 19
  | Invariant_checks -> 20
  | Serve_ticks -> 21
  | Serve_admitted -> 22
  | Serve_shed -> 23
  | Serve_deferred -> 24
  | Serve_drained -> 25
  | Serve_checkpoints -> 26
  | Probe_parallel_batches -> 27
  | Domain_probes -> 28
  | Shard_escalations -> 29
  | Shard_wave_replans -> 30
  | Shard_coord_commits -> 31
  | Shard_coord_aborts -> 32
  | Shard_coord_degraded -> 33
  | Shard_rebalances -> 34
  | Recovery_fallback_depth -> 35
  | Store_frames_corrupt -> 36
  | Supervisor_restarts -> 37
  | Telemetry_expo_writes -> 38

let all =
  [
    Planner_plans;
    Planner_probes;
    Cost_estimates;
    Migration_moves;
    Clear_attempts;
    Path_enumerations;
    State_copies;
    Engine_rounds;
    Events_executed;
    Co_scheduled_events;
    Churn_placements;
    Txn_rollbacks;
    Txn_commits;
    Plan_replays;
    Estimate_cache_hits;
    Estimate_cache_misses;
    Faults_injected;
    Migrations_aborted;
    Retries;
    Events_degraded;
    Invariant_checks;
    Serve_ticks;
    Serve_admitted;
    Serve_shed;
    Serve_deferred;
    Serve_drained;
    Serve_checkpoints;
    Probe_parallel_batches;
    Domain_probes;
    Shard_escalations;
    Shard_wave_replans;
    Shard_coord_commits;
    Shard_coord_aborts;
    Shard_coord_degraded;
    Shard_rebalances;
    Recovery_fallback_depth;
    Store_frames_corrupt;
    Supervisor_restarts;
    Telemetry_expo_writes;
  ]

let size = List.length all

let name = function
  | Planner_plans -> "planner_plans"
  | Planner_probes -> "planner_probes"
  | Cost_estimates -> "cost_estimates"
  | Migration_moves -> "migration_moves"
  | Clear_attempts -> "clear_attempts"
  | Path_enumerations -> "path_enumerations"
  | State_copies -> "state_copies"
  | Engine_rounds -> "engine_rounds"
  | Events_executed -> "events_executed"
  | Co_scheduled_events -> "co_scheduled_events"
  | Churn_placements -> "churn_placements"
  | Txn_rollbacks -> "txn_rollbacks"
  | Txn_commits -> "txn_commits"
  | Plan_replays -> "plan_replays"
  | Estimate_cache_hits -> "estimate_cache_hits"
  | Estimate_cache_misses -> "estimate_cache_misses"
  | Faults_injected -> "faults_injected"
  | Migrations_aborted -> "migrations_aborted"
  | Retries -> "retries"
  | Events_degraded -> "events_degraded"
  | Invariant_checks -> "invariant_checks"
  | Serve_ticks -> "serve_ticks"
  | Serve_admitted -> "serve_admitted"
  | Serve_shed -> "serve_shed"
  | Serve_deferred -> "serve_deferred"
  | Serve_drained -> "serve_drained"
  | Serve_checkpoints -> "serve_checkpoints"
  | Probe_parallel_batches -> "probe_parallel_batches"
  | Domain_probes -> "domain_probes"
  | Shard_escalations -> "shard_escalations"
  | Shard_wave_replans -> "shard_wave_replans"
  | Shard_coord_commits -> "shard_coord_commits"
  | Shard_coord_aborts -> "shard_coord_aborts"
  | Shard_coord_degraded -> "shard_coord_degraded"
  | Shard_rebalances -> "shard_rebalances"
  | Recovery_fallback_depth -> "recovery.fallback_depth"
  | Store_frames_corrupt -> "store.frames_corrupt"
  | Supervisor_restarts -> "supervisor.restarts"
  | Telemetry_expo_writes -> "telemetry.expo_writes"

(* The registry is domain-local: each domain increments its own store
   (no contention, no torn reads), and a probe worker's deltas are
   merged into the spawning domain with {!absorb} after the join — in
   domain-spawn order, so the merged totals are deterministic and, the
   sums being commutative, independent of how probes were distributed
   across domains. Everything below operates on the calling domain's
   store; in a single-domain program that is exactly the historical
   process-global behaviour. *)
let store_key : int array Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Array.make size 0)

let store () = Domain.DLS.get store_key

let incr k =
  let counts = store () in
  let i = index k in
  counts.(i) <- counts.(i) + 1

let add k n =
  let counts = store () in
  let i = index k in
  counts.(i) <- counts.(i) + n

let get k = (store ()).(index k)
let reset () = Array.fill (store ()) 0 size 0

type snapshot = int array

let snapshot () = Array.copy (store ())

let drain () =
  let snap = snapshot () in
  reset ();
  snap

let absorb snap =
  let counts = store () in
  Array.iteri (fun i v -> counts.(i) <- counts.(i) + v) snap

let diff ~before ~after = Array.mapi (fun i v -> v - before.(i)) after
let value snap k = snap.(index k)
let to_alist snap = List.map (fun k -> (name k, snap.(index k))) all

let to_json snap =
  Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) (to_alist snap))

let pp_table ppf snap =
  let alist = to_alist snap in
  let width =
    List.fold_left (fun acc (n, _) -> max acc (String.length n)) 0 alist
  in
  Format.fprintf ppf "@[<v>counters:";
  List.iter
    (fun (n, v) -> Format.fprintf ppf "@,  %-*s %10d" width n v)
    alist;
  Format.fprintf ppf "@]"
