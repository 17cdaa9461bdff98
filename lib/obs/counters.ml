type key =
  | Planner_plans
  | Planner_probes
  | Plan_reverts
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

let index = function
  | Planner_plans -> 0
  | Planner_probes -> 1
  | Plan_reverts -> 2
  | Cost_estimates -> 3
  | Migration_moves -> 4
  | Clear_attempts -> 5
  | Path_enumerations -> 6
  | State_copies -> 7
  | Engine_rounds -> 8
  | Events_executed -> 9
  | Co_scheduled_events -> 10
  | Churn_placements -> 11
  | Txn_rollbacks -> 12
  | Txn_commits -> 13
  | Plan_replays -> 14
  | Estimate_cache_hits -> 15
  | Estimate_cache_misses -> 16
  | Faults_injected -> 17
  | Migrations_aborted -> 18
  | Retries -> 19
  | Events_degraded -> 20
  | Invariant_checks -> 21
  | Serve_ticks -> 22
  | Serve_admitted -> 23
  | Serve_shed -> 24
  | Serve_deferred -> 25
  | Serve_drained -> 26
  | Serve_checkpoints -> 27
  | Probe_parallel_batches -> 28
  | Domain_probes -> 29
  | Shard_escalations -> 30
  | Shard_wave_replans -> 31
  | Shard_coord_commits -> 32
  | Shard_coord_aborts -> 33
  | Shard_coord_degraded -> 34
  | Shard_rebalances -> 35

let all =
  [
    Planner_plans;
    Planner_probes;
    Plan_reverts;
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
  ]

let size = List.length all

let name = function
  | Planner_plans -> "planner_plans"
  | Planner_probes -> "planner_probes"
  | Plan_reverts -> "plan_reverts"
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

(* The registry is domain-local: each domain increments its own store
   (no contention, no torn reads), and a probe worker's deltas are
   merged into the spawning domain with {!absorb} after the join — in
   domain-spawn order, so the merged totals are deterministic and, the
   sums being commutative, independent of how probes were distributed
   across domains. Everything below operates on the calling domain's
   store; in a single-domain program that is exactly the historical
   process-global behaviour. *)
type store = { counts : int array; named : (string, int ref) Hashtbl.t }

let store_key : store Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { counts = Array.make size 0; named = Hashtbl.create 16 })

let store () = Domain.DLS.get store_key

let incr k =
  let counts = (store ()).counts in
  let i = index k in
  counts.(i) <- counts.(i) + 1

let add k n =
  let counts = (store ()).counts in
  let i = index k in
  counts.(i) <- counts.(i) + n

let get k = (store ()).counts.(index k)

(* Dynamic named counters, created on first increment. *)

let add_named n k =
  if n = "" then invalid_arg "Counters.add_named: empty name";
  let named = (store ()).named in
  match Hashtbl.find_opt named n with
  | Some r -> r := !r + k
  | None -> Hashtbl.add named n (ref k)

let incr_named n = add_named n 1

let get_named n =
  match Hashtbl.find_opt (store ()).named n with Some r -> !r | None -> 0

let reset () =
  let s = store () in
  Array.fill s.counts 0 size 0;
  Hashtbl.reset s.named

type snapshot = { fixed : int array; dyn : (string * int) list }

let snapshot () =
  let s = store () in
  {
    fixed = Array.copy s.counts;
    dyn =
      Hashtbl.fold (fun n r acc -> (n, !r) :: acc) s.named []
      |> List.sort (fun (a, _) (b, _) -> compare a b);
  }

let drain () =
  let snap = snapshot () in
  reset ();
  snap

let absorb snap =
  if Array.length snap.fixed <> size then
    invalid_arg "Counters.absorb: snapshot size mismatch";
  let s = store () in
  Array.iteri (fun i v -> s.counts.(i) <- s.counts.(i) + v) snap.fixed;
  List.iter (fun (n, v) -> if v <> 0 then add_named n v) snap.dyn

(* The named-counter diff is over the *union* of both snapshots' names:
   a counter first incremented between the two snapshots diffs against
   an implicit zero instead of silently disappearing. *)
let diff ~before ~after =
  if Array.length before.fixed <> size || Array.length after.fixed <> size then
    invalid_arg "Counters.diff: snapshot size mismatch";
  let get l n = Option.value (List.assoc_opt n l) ~default:0 in
  let names =
    List.sort_uniq compare
      (List.map fst before.dyn @ List.map fst after.dyn)
  in
  {
    fixed = Array.init size (fun i -> after.fixed.(i) - before.fixed.(i));
    dyn = List.map (fun n -> (n, get after.dyn n - get before.dyn n)) names;
  }

let value snap k = snap.fixed.(index k)
let to_alist snap =
  List.map (fun k -> (name k, snap.fixed.(index k))) all @ snap.dyn

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
