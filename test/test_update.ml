(* nu_update: event abstraction, migration approximation, planner,
   move ordering. *)

let of_spec = Test_util.of_spec

let flow ?(demand = 100.0) = Test_util.flow ~demand

let place_exn net record =
  match Routing.select net record with
  | None -> Alcotest.fail "no feasible path"
  | Some path -> (
      match Net_state.place net record path with
      | Ok () -> path
      | Error _ -> Alcotest.fail "placement failed")

(* A k=4 network loaded so the update machinery has something to chew on:
   the inter-pod pairs load the desired (hash-chosen) path of a later
   probe moderately. Its flows are numbered from 100. *)
let loaded_net ?demand () = Test_util.loaded_net ?demand ~first_id:100 ()

let residual_snapshot net =
  Array.init
    (Graph.edge_count (Net_state.graph net))
    (fun i -> Net_state.residual net i)

let check_same_residuals msg a b =
  Array.iteri
    (fun i va ->
      if abs_float (va -. b.(i)) > 1e-6 then
        Alcotest.failf "%s: edge %d differs (%.3f vs %.3f)" msg i va b.(i))
    a

(* ------------------------------------------------------------------ *)
(* Event                                                               *)

let spec_of_flows flows =
  { Event_gen.event_id = 1; arrival_s = 0.0; flows }

let test_event_of_spec () =
  let ev = of_spec (spec_of_flows [ flow 0 1; flow ~id:1 2 3 ]) in
  Alcotest.(check int) "work count" 2 (Event.work_count ev);
  Alcotest.(check int) "installs" 2 (List.length
       (List.filter
          (function Event.Install _ -> true | Event.Reroute _ -> false)
          ev.Event.work));
  Alcotest.(check bool) "kind" true (ev.Event.kind = Event.Additions)

let test_event_of_spec_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Event.of_spec: empty flow list")
    (fun () -> ignore (of_spec (spec_of_flows [])))

let test_event_compare () =
  let a = { (of_spec (spec_of_flows [ flow 0 1 ])) with Event.id = 1; arrival_s = 1.0 } in
  let b = { (of_spec (spec_of_flows [ flow 0 1 ])) with Event.id = 2; arrival_s = 2.0 } in
  Alcotest.(check bool) "ordered" true (Event.compare_by_arrival a b < 0)

let test_switch_upgrade_event () =
  let net = loaded_net () in
  let ft = Fat_tree.create ~k:4 () in
  let agg = Fat_tree.aggregation ft ~pod:0 0 in
  (* Find a switch actually crossed by flows. *)
  let crossing = Net_state.flows_through_node net agg in
  if crossing = [] then
    Alcotest.check_raises "no flows"
      (Invalid_argument "Event.switch_upgrade_event: no flow crosses the switch")
      (fun () ->
        ignore (Event.switch_upgrade_event net ~id:9 ~arrival_s:0.0 ~switch:agg))
  else begin
    let ev = Event.switch_upgrade_event net ~id:9 ~arrival_s:0.0 ~switch:agg in
    Alcotest.(check int) "one reroute per crossing flow" (List.length crossing)
      (Event.work_count ev);
    Alcotest.(check bool) "kind" true (ev.Event.kind = Event.Switch_upgrade agg)
  end

let test_link_failure_evacuates () =
  let net = loaded_net () in
  let g = Net_state.graph net in
  let busy =
    let rec find id =
      if id >= Graph.edge_count g then Alcotest.fail "a busy edge exists"
      else if Net_state.flows_on_edge net id <> [] then id
      else find (id + 1)
    in
    find 0
  in
  let reverse = Graph.reverse_edge g (Graph.edge g busy) in
  Net_state.disable_edge net busy;
  (match reverse with
  | Some r -> Net_state.disable_edge net r.Graph.id
  | None -> ());
  let ev = Event.link_failure_event net ~id:7 ~arrival_s:0.0 ~edge:busy in
  Alcotest.(check bool) "kind" true
    (match ev.Event.kind with Event.Link_failure _ -> true | _ -> false);
  let plan = Planner.plan net ev in
  (* Every successfully rerouted flow must now avoid both directions. *)
  List.iter
    (fun (item : Planner.item_plan) ->
      match (item.Planner.work, item.Planner.outcome) with
      | Event.Reroute { flow_id; _ }, Planner.Rerouted _ -> (
          match Net_state.flow net flow_id with
          | Some placed ->
              Alcotest.(check bool) "avoids failed link" false
                (Path.mentions_edge placed.Net_state.path busy)
          | None -> Alcotest.fail "flow vanished")
      | _ -> ())
    plan.Planner.items;
  Alcotest.(check bool) "link drained" true
    (Net_state.flows_on_edge net busy = [] || plan.Planner.failed_count > 0);
  match Net_state.invariants_ok net with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_vm_migration_event () =
  let ev = Event.vm_migration_event ~id:3 ~arrival_s:1.0 ~flows:[ flow 0 1 ] in
  Alcotest.(check bool) "kind" true (ev.Event.kind = Event.Vm_migration);
  Alcotest.check_raises "no flows" (Invalid_argument "Event.vm_migration_event: no flows")
    (fun () -> ignore (Event.vm_migration_event ~id:3 ~arrival_s:1.0 ~flows:[]))

(* ------------------------------------------------------------------ *)
(* Migration                                                           *)

(* Craft a situation where clearing is needed and possible: leaf-spine
   with 2 spines. A blocker flow occupies spine 0 on the probe's path;
   migrating it to spine 1 frees the path. *)
let clearing_scenario () =
  let ls = Leaf_spine.create ~leaves:2 ~spines:2 ~hosts_per_leaf:2
      ~leaf_spine_capacity:1000.0 ~host_capacity:1000.0 () in
  let topo = Leaf_spine.to_topology ls in
  let net = Net_state.create topo in
  (* Host indices: 0,1 on leaf 0; 2,3 on leaf 1. *)
  let blocker = flow ~id:1 ~demand:900.0 1 3 in
  let via_spine0 = List.hd (Test_util.candidate_paths net blocker) in
  (match Net_state.place net blocker via_spine0 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "blocker placement");
  (net, via_spine0)

(* [Migration.clear_path] with the planner's defaults: best-fit picks,
   first-fit targets, no avoidance constraint. *)
let clear_path ?(order = Migration.Best_fit_first) ?(work_units = ref 0) net =
  Migration.clear_path ~order ~policy:Routing.First_fit
    ~avoid:Event.Unconstrained ~work_units net

let test_clear_path_moves_blocker () =
  let net, blocked_path = clearing_scenario () in
  (* A new 0->2 flow wants spine 0 (shares the leaf-spine links). *)
  let probe = flow ~id:2 ~demand:400.0 0 2 in
  let desired =
    List.find
      (fun p ->
        List.exists
          (fun (e : Graph.edge) -> Path.mentions_edge blocked_path e.Graph.id)
          (Path.edges p))
      (Test_util.candidate_paths net probe)
  in
  let c = Net_state.candidates net probe in
  let i = Test_util.candidate_index c desired in
  Alcotest.(check bool) "initially congested" false
    (Net_state.candidate_feasible net c i ~demand:400.0);
  let units = ref 0 in
  match
    clear_path ~work_units:units net ~demand:400.0 ~path:desired
      ~exclude:(fun _ -> false)
  with
  | Error _ -> Alcotest.fail "clearing is possible via spine 1"
  | Ok moves ->
      Alcotest.(check int) "one move" 1 (List.length moves);
      let m = List.hd moves in
      Alcotest.(check int) "moved the blocker" 1 m.Migration.flow_id;
      Alcotest.(check bool) "path now feasible" true
        (Net_state.candidate_feasible net c i ~demand:400.0);
      Alcotest.(check bool) "work units counted" true (!units > 0);
      Alcotest.(check (float 1e-9)) "cost = blocker size" 9000.0
        (Migration.moves_cost_mbit moves);
      (match Net_state.invariants_ok net with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)

let test_clear_path_exclude_blocks () =
  let net, blocked_path = clearing_scenario () in
  let probe = flow ~id:2 ~demand:400.0 0 2 in
  let desired =
    List.find
      (fun p ->
        List.exists
          (fun (e : Graph.edge) -> Path.mentions_edge blocked_path e.Graph.id)
          (Path.edges p))
      (Test_util.candidate_paths net probe)
  in
  let before = residual_snapshot net in
  (match
     clear_path net ~demand:400.0 ~path:desired ~exclude:(fun id ->
         id = 1)
   with
  | Ok _ -> Alcotest.fail "the only movable flow is excluded"
  | Error (Migration.Cannot_free _) -> ());
  check_same_residuals "rollback exact" before (residual_snapshot net)

let test_clear_path_noop_when_free () =
  let net = Net_state.create (Test_util.topo4 ()) in
  let probe = flow ~id:2 ~demand:100.0 0 15 in
  let path = List.hd (Test_util.candidate_paths net probe) in
  match clear_path net ~demand:100.0 ~path ~exclude:(fun _ -> false) with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "no moves needed"
  | Error _ -> Alcotest.fail "path already free"

let test_clear_path_rollback_on_failure () =
  (* Saturate both spines so clearing must fail after possibly moving
     some flows; state must come back exactly. *)
  let ls = Leaf_spine.create ~leaves:2 ~spines:2 ~hosts_per_leaf:4 () in
  let topo = Leaf_spine.to_topology ls in
  let net = Net_state.create topo in
  (* leaf-spine links are 4000 Mbps; host links 1000. Fill both spines
     from distinct host pairs. *)
  let id = ref 0 in
  List.iter
    (fun (src, dst) ->
      let r = flow ~id:!id ~demand:900.0 src dst in
      incr id;
      let c = Net_state.candidates net r in
      let placed = ref false in
      for i = 0 to Net_state.candidate_count c - 1 do
        if (not !placed) && Net_state.candidate_feasible net c i ~demand:900.0
        then
          match Net_state.place net r (Net_state.candidate_path net c i) with
          | Ok () -> placed := true
          | Error _ -> ()
      done)
    [ (0, 4); (1, 5); (2, 6); (3, 7) ];
  (* Now each spine path carries ~1800/4000; ask for an infeasible gap on
     a saturated *host* link instead: host 0's access link has 900 used,
     demand 500 cannot fit and no flow can leave the access link. *)
  let probe = flow ~id:99 ~demand:500.0 0 6 in
  let c = Net_state.candidates net probe in
  let path = Net_state.candidate_path net c 0 in
  if Net_state.candidate_feasible net c 0 ~demand:500.0 then ()
  else begin
    let before = residual_snapshot net in
    match clear_path net ~demand:500.0 ~path ~exclude:(fun _ -> false) with
    | Ok _ -> ()  (* clearing may legitimately succeed on fabric links *)
    | Error _ -> check_same_residuals "rollback" before (residual_snapshot net)
  end

(* A crafted pool that pins the greedy's pick order under every order.
   Leaf-spine, 3 leaves x 4 hosts, 1200 Mbps fabric links. The probe
   0 -> 4 wants spine 0, so both of its fabric hops are congested: A
   (leaf 0 -> spine 0, full) then B (spine 0 -> leaf 1). Every other
   flow rides spine 0 and can only move to spine 1.
   - Flow 1 holds the best key on A under all three orders and is
     excluded.
   - Flow 3 crosses A and B and holds the best key on B; it moves while
     A is cleared, before B's pool is read.
   - Flow 2 leaves the probe's own source host, so it cannot move: a
     pick that frees nothing and leaves the gap as it was.
   - Ties: 3 and 8 share the size/demand ratio; 5 and 11 share every
     key; 5, 8 and 11 share the demand. Placement order (row order)
     puts the higher id first in each tie.
   - Best-fit falls back to the ratio until the shrinking gap lets a
     single flow close it (2, then 20); best-ratio-first moves 14
     first. *)
let test_clear_path_pick_order () =
  let run order =
    let ls =
      Leaf_spine.create ~leaves:3 ~spines:2 ~hosts_per_leaf:4
        ~leaf_spine_capacity:1200.0 ~host_capacity:1000.0 ()
    in
    let net = Net_state.create (Leaf_spine.to_topology ls) in
    let via_spine0 (id, src, dst, demand, size_mbit) =
      let r =
        Flow_record.v ~id ~src ~dst ~size_mbit ~duration_s:(size_mbit /. demand)
          ~arrival_s:0.0
      in
      let c = Net_state.candidates net r in
      match Net_state.place net r (Net_state.candidate_path net c 0) with
      | Ok () -> ()
      | Error _ -> Alcotest.failf "placing flow %d" id
    in
    List.iter via_spine0
      [
        (20, 1, 9, 150.0, 900.0);
        (11, 2, 11, 100.0, 200.0);
        (8, 3, 9, 100.0, 50.0);
        (2, 0, 11, 160.0, 640.0);
        (14, 2, 8, 40.0, 120.0);
        (1, 1, 8, 260.0, 26.0);
        (5, 1, 10, 100.0, 200.0);
        (3, 2, 5, 250.0, 125.0);
        (31, 9, 7, 200.0, 200.0);
        (32, 10, 5, 230.0, 920.0);
        (30, 8, 6, 240.0, 480.0);
      ];
    let probe = flow ~id:99 ~demand:700.0 0 4 in
    let c = Net_state.candidates net probe in
    let path = Net_state.candidate_path net c 0 in
    let units = ref 0 in
    match
      clear_path ~order ~work_units:units net ~demand:700.0 ~path
        ~exclude:(fun id -> id = 1)
    with
    | Error _ -> Alcotest.failf "%s: clearing is possible" (Migration.order_name order)
    | Ok moves ->
        (match Net_state.invariants_ok net with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        (List.map (fun m -> m.Migration.flow_id) moves, !units)
  in
  List.iter
    (fun (order, ids, units) ->
      let name = Migration.order_name order in
      let got_ids, got_units = run order in
      Alcotest.(check (list int)) (name ^ " moves") ids got_ids;
      Alcotest.(check int) (name ^ " work units") units got_units)
    [
      (Migration.Best_fit_first, [ 3; 8; 5; 11; 20; 31 ], 6);
      (Migration.Largest_demand_first, [ 3; 20; 5; 8; 11; 30 ], 6);
      (Migration.Best_ratio_first, [ 3; 8; 5; 11; 14; 20; 31 ], 7);
    ]

let test_migration_orders_names () =
  Alcotest.(check int) "three orders" 3 (List.length Migration.all_orders);
  List.iter
    (fun o -> Alcotest.(check bool) "named" true (Migration.order_name o <> ""))
    Migration.all_orders

(* ------------------------------------------------------------------ *)
(* Planner                                                             *)

let test_plan_installs_event () =
  let net = loaded_net () in
  let ev =
    of_spec
      (spec_of_flows [ flow ~id:0 ~demand:50.0 0 15; flow ~id:1 ~demand:20.0 3 12 ])
  in
  let plan = Planner.plan net ev in
  Alcotest.(check int) "no failures" 0 plan.Planner.failed_count;
  Alcotest.(check bool) "flows placed" true
    (Net_state.is_placed net 0 && Net_state.is_placed net 1);
  Alcotest.(check bool) "rule hops counted" true (plan.Planner.rule_hops >= 2 * 2);
  match Net_state.invariants_ok net with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_plan_revert_roundtrip () =
  let net = loaded_net () in
  let before = residual_snapshot net in
  let flows_before = Net_state.flow_count net in
  let ev =
    of_spec
      (spec_of_flows
         [
           flow ~id:0 ~demand:300.0 0 15;
           flow ~id:1 ~demand:250.0 1 14;
           flow ~id:2 ~demand:10.0 2 13;
         ])
  in
  Net_state.begin_txn net;
  ignore (Planner.plan net ev);
  Net_state.rollback net;
  check_same_residuals "residuals restored" before (residual_snapshot net);
  Alcotest.(check int) "flow count restored" flows_before (Net_state.flow_count net);
  match Net_state.invariants_ok net with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_probe_pure () =
  let net = loaded_net () in
  let before = residual_snapshot net in
  let ev = of_spec (spec_of_flows [ flow ~id:0 ~demand:300.0 0 15 ]) in
  let est1 = (Planner.probe net ev).Planner.probe_plan in
  let est2 = (Planner.probe net ev).Planner.probe_plan in
  check_same_residuals "state unchanged" before (residual_snapshot net);
  Alcotest.(check (float 1e-9)) "estimates deterministic"
    est1.Planner.cost_mbit est2.Planner.cost_mbit;
  Alcotest.(check bool) "units positive" true (est1.Planner.work_units > 0)

let test_plan_migration_cost_positive () =
  let net, blocked_path = clearing_scenario () in
  ignore blocked_path;
  (* 0 -> 2 at 400 Mbps: depending on the ECMP hash the desired path may
     need the blocker migrated. Whether or not migration happens, the
     flow must install. *)
  let ev = of_spec (spec_of_flows [ flow ~id:2 ~demand:400.0 0 2 ]) in
  let plan = Planner.plan net ev in
  Alcotest.(check int) "installed" 0 plan.Planner.failed_count;
  Alcotest.(check bool) "cost consistent with moves" true
    ((plan.Planner.cost_mbit > 0.0) = (plan.Planner.move_count > 0))

let test_plan_desired_first_pays_more () =
  (* Force the desired path to be congested: scan-first should then be
     no more expensive than desired-first on the same state. *)
  let net, _ = clearing_scenario () in
  let ev = of_spec (spec_of_flows [ flow ~id:2 ~demand:400.0 0 2 ]) in
  let desired_cfg = Planner.default_config in
  let scan_cfg = { Planner.default_config with Planner.admission = Planner.Scan_first } in
  let cost config =
    Net_state.begin_txn net;
    let plan = Planner.plan ~config net ev in
    Net_state.rollback net;
    plan.Planner.cost_mbit
  in
  let est_desired = cost desired_cfg in
  let est_scan = cost scan_cfg in
  Alcotest.(check bool) "scan-first cost <= desired-first" true
    (est_scan <= est_desired +. 1e-9)

let test_plan_failure_reason () =
  let net = Net_state.create (Test_util.topo4 ()) in
  (* Demand beyond link capacity can never be placed. *)
  let ev = of_spec (spec_of_flows [ flow ~id:0 ~demand:2000.0 0 15 ]) in
  let plan = Planner.plan net ev in
  Alcotest.(check int) "failed" 1 plan.Planner.failed_count;
  (match plan.Planner.items with
  | [ { Planner.outcome = Planner.Failed Planner.Could_not_free; _ } ] -> ()
  | _ -> Alcotest.fail "expected Could_not_free");
  Alcotest.(check bool) "nothing placed" false (Net_state.is_placed net 0)

let test_plan_reroute_work () =
  let net = loaded_net () in
  let ft = Fat_tree.create ~k:4 () in
  (* Upgrade an aggregation switch crossed by flows; after planning, no
     rerouted flow may still traverse it. *)
  let agg = Fat_tree.aggregation ft ~pod:0 0 in
  let crossing = Net_state.flows_through_node net agg in
  if crossing <> [] then begin
    let ev = Event.switch_upgrade_event net ~id:9 ~arrival_s:0.0 ~switch:agg in
    let plan = Planner.plan net ev in
    List.iter
      (fun (item : Planner.item_plan) ->
        match (item.Planner.work, item.Planner.outcome) with
        | Event.Reroute { flow_id; _ }, Planner.Rerouted _ -> (
            match Net_state.flow net flow_id with
            | Some placed ->
                Alcotest.(check bool) "evacuated" false
                  (Path.mentions_node placed.Net_state.path agg)
            | None -> Alcotest.fail "flow vanished")
        | Event.Reroute _, Planner.Failed _ -> ()
        | _ -> Alcotest.fail "unexpected item shape")
      plan.Planner.items;
    match Net_state.invariants_ok net with
    | Ok () -> ()
    | Error e -> Alcotest.fail e
  end

let test_plan_duplicate_install () =
  let net = Net_state.create (Test_util.topo4 ()) in
  let r = flow ~id:0 ~demand:10.0 0 15 in
  let _ = place_exn net r in
  let ev = of_spec (spec_of_flows [ r ]) in
  Net_state.begin_txn net;
  let plan = Planner.plan net ev in
  (match plan.Planner.items with
  | [ { Planner.outcome = Planner.Failed Planner.Already_placed; _ } ] -> ()
  | _ -> Alcotest.fail "expected Already_placed");
  (* Undoing the plan must not disturb the pre-existing placement. *)
  Net_state.rollback net;
  Alcotest.(check bool) "original placement intact" true (Net_state.is_placed net 0)

let test_plan_reroute_unknown_flow () =
  let net = Net_state.create (Test_util.topo4 ()) in
  let ev =
    {
      Event.id = 1;
      arrival_s = 0.0;
      kind = Event.Additions;
      work = [ Event.Reroute { flow_id = 999; avoid = Event.Unconstrained } ];
    }
  in
  let plan = Planner.plan net ev in
  match plan.Planner.items with
  | [ { Planner.outcome = Planner.Failed Planner.Flow_not_placed; _ } ] -> ()
  | _ -> Alcotest.fail "expected Flow_not_placed"

let test_plan_frozen_respected () =
  let net, blocked_path = clearing_scenario () in
  ignore blocked_path;
  let ev = of_spec (spec_of_flows [ flow ~id:2 ~demand:400.0 0 2 ]) in
  (* Freeze the blocker: no plan may migrate it. *)
  let plan = Planner.plan ~frozen:(fun id -> id = 1) net ev in
  List.iter
    (fun (item : Planner.item_plan) ->
      match item.Planner.outcome with
      | Planner.Installed { moves; _ } | Planner.Rerouted { moves; _ } ->
          List.iter
            (fun (m : Migration.move) ->
              Alcotest.(check bool) "frozen flow untouched" false
                (m.Migration.flow_id = 1))
            moves
      | Planner.Failed _ -> ())
    plan.Planner.items

let test_plan_work_units_monotone () =
  let net = loaded_net () in
  let small = of_spec (spec_of_flows [ flow ~id:0 ~demand:10.0 0 15 ]) in
  let big =
    of_spec
      (spec_of_flows (List.init 20 (fun i -> flow ~id:i ~demand:10.0 (i mod 8) (15 - (i mod 8)))))
  in
  let e_small = (Planner.probe net small).Planner.probe_plan in
  let e_big = (Planner.probe net big).Planner.probe_plan in
  Alcotest.(check bool) "more work for more flows" true
    (e_big.Planner.work_units > e_small.Planner.work_units)

let prop_plan_revert_preserves_invariants =
  QCheck.Test.make ~name:"plan+revert keeps invariants on random events"
    ~count:20 QCheck.small_int (fun seed ->
      let net = loaded_net () in
      let rng = Prng.create seed in
      let specs =
        Event_gen.generate ~first_flow_id:10_000 rng ~host_count:16 ~n_events:3
      in
      let events = Event.of_specs specs in
      List.for_all
        (fun ev ->
          (* An open transaction fails the audit, so the applied plan
             is checked on a copy. *)
          let applied = Net_state.copy net in
          ignore (Planner.plan applied ev);
          let ok_applied = Net_state.invariants_ok applied = Ok () in
          Net_state.begin_txn net;
          ignore (Planner.plan net ev);
          Net_state.rollback net;
          ok_applied && Net_state.invariants_ok net = Ok ())
        events)

(* ------------------------------------------------------------------ *)
(* Ordering                                                            *)

(* Dionysus-style dependency rounds. These cases run against their own
   load: the eight inter-pod flows at 250 Mbps instead of 300. *)
module Ordering_cases = struct
  let loaded_net () = loaded_net ~demand:250.0 ()

  let test_ordering_empty () =
    let net = loaded_net () in
    match Ordering.schedule net [] with
    | Ok s ->
        Alcotest.(check int) "no rounds" 0 s.Ordering.depth;
        Alcotest.(check int) "width" 0 s.Ordering.width
    | Error _ -> Alcotest.fail "empty schedules trivially"

  let test_ordering_plan_moves () =
    let net = loaded_net () in
    let before = Net_state.copy net in
    let ev =
      of_spec
        {
          Event_gen.event_id = 0;
          arrival_s = 0.0;
          flows = [ flow ~id:0 ~demand:300.0 0 15; flow ~id:1 ~demand:300.0 1 14 ];
        }
    in
    let plan = Planner.plan net ev in
    let moves =
      List.concat_map
        (fun (item : Planner.item_plan) ->
          match item.Planner.outcome with
          | Planner.Installed { moves; _ } | Planner.Rerouted { moves; _ } -> moves
          | Planner.Failed _ -> [])
        plan.Planner.items
    in
    match Ordering.schedule before (Ordering.of_moves moves) with
    | Ok s ->
        Alcotest.(check int) "every move scheduled" (List.length moves)
          (List.fold_left (fun a r -> a + List.length r) 0 s.Ordering.rounds);
        Alcotest.(check bool) "depth sane" true (s.Ordering.depth <= max 1 (List.length moves))
    | Error (Ordering.Deadlock _) ->
        Alcotest.fail "planner moves replayed from pre-state cannot deadlock"
    | Error (Ordering.Unknown_flow id) -> Alcotest.failf "unknown flow %d" id

  let test_ordering_unknown_flow () =
    let net = loaded_net () in
    let placed = Option.get (Net_state.flow net 100) in
    let spec = Ordering.{ flow_id = 424242; to_path = placed.Net_state.path } in
    match Ordering.schedule net [ spec ] with
    | Error (Ordering.Unknown_flow 424242) -> ()
    | _ -> Alcotest.fail "expected Unknown_flow"

  let test_ordering_dependency_rounds () =
    (* A two-round dependency on a 3-spine leaf-spine: flow B (700 Mbps,
       on spine 1) wants spine 0, but flow C (400 Mbps) sits there; C must
       first move to the empty spine 2. *)
    let ls = Leaf_spine.create ~leaves:2 ~spines:3 ~hosts_per_leaf:2
        ~leaf_spine_capacity:1000.0 ~host_capacity:1000.0 () in
    let topo = Leaf_spine.to_topology ls in
    let net = Net_state.create topo in
    let path_via net r spine =
      List.find
        (fun p -> Path.mentions_node p spine)
        (Test_util.candidate_paths net r)
    in
    (* Hosts 0,1 on leaf 0; hosts 2,3 on leaf 1; spines are nodes 0-2. *)
    let c = flow ~id:1 ~demand:400.0 0 2 in
    let b = flow ~id:2 ~demand:700.0 1 3 in
    (match Net_state.place net c (path_via net c 0) with Ok () -> () | Error _ -> assert false);
    (match Net_state.place net b (path_via net b 1) with Ok () -> () | Error _ -> assert false);
    let moves =
      Ordering.
        [
          { flow_id = 2; to_path = path_via net b 0 };  (* blocked by C *)
          { flow_id = 1; to_path = path_via net c 2 };  (* free *)
        ]
    in
    match Ordering.schedule net moves with
    | Ok s ->
        Alcotest.(check int) "two rounds" 2 s.Ordering.depth;
        (match s.Ordering.rounds with
        | [ first; second ] ->
            Alcotest.(check (list int)) "C moves first" [ 1 ]
              (List.map (fun m -> m.Ordering.flow_id) first);
            Alcotest.(check (list int)) "B follows" [ 2 ]
              (List.map (fun m -> m.Ordering.flow_id) second)
        | _ -> Alcotest.fail "round shape")
    | Error _ -> Alcotest.fail "schedulable in two rounds"

  let test_ordering_deadlock () =
    (* Both flows want to swap onto each other's spine, but both spines are
       too full to host two flows at once: a genuine deadlock. *)
    let ls = Leaf_spine.create ~leaves:2 ~spines:2 ~hosts_per_leaf:2
        ~leaf_spine_capacity:1000.0 ~host_capacity:1000.0 () in
    let topo = Leaf_spine.to_topology ls in
    let net = Net_state.create topo in
    let path_via net r spine =
      List.find (fun p -> Path.mentions_node p spine) (Test_util.candidate_paths net r)
    in
    let a = flow ~id:1 ~demand:700.0 0 2 in
    let b = flow ~id:2 ~demand:700.0 1 3 in
    (match Net_state.place net a (path_via net a 0) with Ok () -> () | Error _ -> assert false);
    (match Net_state.place net b (path_via net b 1) with Ok () -> () | Error _ -> assert false);
    let moves =
      Ordering.
        [
          { flow_id = 1; to_path = path_via net a 1 };
          { flow_id = 2; to_path = path_via net b 0 };
        ]
    in
    match Ordering.schedule net moves with
    | Error (Ordering.Deadlock blocked) ->
        Alcotest.(check int) "both stuck" 2 (List.length blocked)
    | Ok _ -> Alcotest.fail "700+700 cannot share a 1000 link"
    | Error (Ordering.Unknown_flow _) -> Alcotest.fail "flows exist"

  let test_ordering_verify () =
    let net = loaded_net () in
    let before = Net_state.copy net in
    let ev =
      of_spec
        {
          Event_gen.event_id = 0;
          arrival_s = 0.0;
          flows = [ flow ~id:0 ~demand:300.0 0 15; flow ~id:1 ~demand:300.0 1 14 ];
        }
    in
    let plan = Planner.plan net ev in
    let moves =
      List.concat_map
        (fun (item : Planner.item_plan) ->
          match item.Planner.outcome with
          | Planner.Installed { moves; _ } | Planner.Rerouted { moves; _ } -> moves
          | Planner.Failed _ -> [])
        plan.Planner.items
    in
    match Ordering.schedule before (Ordering.of_moves moves) with
    | Ok s -> (
        match Ordering.verify before s with
        | Ok () -> ()
        | Error e -> Alcotest.fail ("schedule must verify: " ^ e))
    | Error _ -> Alcotest.fail "schedulable"

  let test_ordering_verify_rejects_bogus () =
    let net = loaded_net () in
    let placed = Option.get (Net_state.flow net 100) in
    let bogus =
      {
        Ordering.rounds = [ [ Ordering.{ flow_id = 31337; to_path = placed.Net_state.path } ] ];
        depth = 1;
        width = 1;
      }
    in
    match Ordering.verify net bogus with
    | Error _ -> ()
    | Ok () -> Alcotest.fail "unknown flow must not verify"

  let test_ordering_leaves_state_unchanged () =
    let net = loaded_net () in
    let placed = Option.get (Net_state.flow net 100) in
    let other =
      List.find
        (fun p -> not (Path.equal p placed.Net_state.path))
        (Test_util.candidate_paths net placed.Net_state.record)
    in
    let before = Net_state.flow_count net in
    ignore (Ordering.schedule net [ Ordering.{ flow_id = 100; to_path = other } ]);
    Alcotest.(check int) "flow count unchanged" before (Net_state.flow_count net);
    let placed' = Option.get (Net_state.flow net 100) in
    Alcotest.(check bool) "path unchanged" true
      (Path.equal placed.Net_state.path placed'.Net_state.path)
end

(* The planning probe's allocation, per planned item. A k=4 Fat-Tree
   is filled to 70%, and a fixed event set is probed on it: 40
   synchronous addition events plus a switch upgrade and a link failure,
   so both admission paths and the migration greedy run (the test checks
   that clears and moves happen). After one warm-up pass (the undo
   journal, the probe buffers and the planning scratch grow to size),
   [Gc.minor_words] over five passes is divided by the items planned. A
   probe keeps its plan: per installed item the path, its binding and
   table entry, the outcome and item cells, plus the read set and the
   journal the rollback replays. *)
let probe_words_per_item () =
  let sc = Scenario.prepare ~k:4 ~utilization:0.7 ~seed:3 () in
  let net = sc.Scenario.net in
  let busy =
    List.find
      (fun e -> Net_state.edge_flow_count net e > 0)
      (Net_state.fabric_edges net)
  in
  let events =
    Scenario.events ~shape:Event_gen.Synchronous sc ~n:40
    @ [
        Event.switch_upgrade_event net ~id:40 ~arrival_s:0.0
          ~switch:(Fat_tree.aggregation sc.Scenario.fat_tree ~pod:0 0);
        Event.link_failure_event net ~id:41 ~arrival_s:0.0 ~edge:busy;
      ]
  in
  let items = List.fold_left (fun acc ev -> acc + Event.work_count ev) 0 events in
  let pass () = List.iter (fun ev -> ignore (Planner.probe net ev)) events in
  pass ();
  let before = Obs.Counters.snapshot () in
  let w0 = Gc.minor_words () in
  for _ = 1 to 5 do
    pass ()
  done;
  let words = Gc.minor_words () -. w0 in
  let d = Obs.Counters.diff ~before ~after:(Obs.Counters.snapshot ()) in
  ( words /. float_of_int (5 * items),
    Obs.Counters.value d Obs.Counters.Clear_attempts,
    Obs.Counters.value d Obs.Counters.Migration_moves )

let test_probe_words_per_item () =
  let per_item, clears, moves = probe_words_per_item () in
  Alcotest.(check bool) "clears run" true (clears > 0);
  Alcotest.(check bool) "moves happen" true (moves > 0);
  (* This set measures 282.6 words per item here; before admission and
     the migration greedy allocated only what the plan keeps, it
     measured 6,056.8. Most of the gap is the greedy's picks: a local
     closure per pick to test the picked flow's access hops against the
     cleared path alone reads 1,009.4. *)
  if per_item > 350.0 then
    Alcotest.failf "%.1f minor words per planned item, bound 350" per_item

let suite =
  [
    ("event of_spec", `Quick, test_event_of_spec);
    ("event empty spec", `Quick, test_event_of_spec_empty);
    ("event compare", `Quick, test_event_compare);
    ("event switch upgrade", `Quick, test_switch_upgrade_event);
    ("event link failure", `Quick, test_link_failure_evacuates);
    ("event vm migration", `Quick, test_vm_migration_event);
    ("clear_path moves blocker", `Quick, test_clear_path_moves_blocker);
    ("clear_path exclude", `Quick, test_clear_path_exclude_blocks);
    ("clear_path noop", `Quick, test_clear_path_noop_when_free);
    ("clear_path rollback", `Quick, test_clear_path_rollback_on_failure);
    ("clear_path pick order", `Quick, test_clear_path_pick_order);
    ("migration orders", `Quick, test_migration_orders_names);
    ("plan installs", `Quick, test_plan_installs_event);
    ("plan revert roundtrip", `Quick, test_plan_revert_roundtrip);
    ("probe pure", `Quick, test_probe_pure);
    ("plan migration cost", `Quick, test_plan_migration_cost_positive);
    ("admission cost relation", `Quick, test_plan_desired_first_pays_more);
    ("plan failure reason", `Quick, test_plan_failure_reason);
    ("plan reroute work", `Quick, test_plan_reroute_work);
    ("plan duplicate install", `Quick, test_plan_duplicate_install);
    ("plan reroute unknown", `Quick, test_plan_reroute_unknown_flow);
    ("plan frozen", `Quick, test_plan_frozen_respected);
    ("plan work units monotone", `Quick, test_plan_work_units_monotone);
    ("probe words per planned item", `Quick, test_probe_words_per_item);
    QCheck_alcotest.to_alcotest prop_plan_revert_preserves_invariants;
    ("ordering empty", `Quick, Ordering_cases.test_ordering_empty);
    ("ordering plan moves", `Quick, Ordering_cases.test_ordering_plan_moves);
    ("ordering unknown flow", `Quick, Ordering_cases.test_ordering_unknown_flow);
    ("ordering dependency rounds", `Quick, Ordering_cases.test_ordering_dependency_rounds);
    ("ordering deadlock", `Quick, Ordering_cases.test_ordering_deadlock);
    ("ordering verify", `Quick, Ordering_cases.test_ordering_verify);
    ("ordering verify bogus", `Quick, Ordering_cases.test_ordering_verify_rejects_bogus);
    ("ordering state unchanged", `Quick, Ordering_cases.test_ordering_leaves_state_unchanged);
  ]
