(* Switch upgrade: one of the update issues motivating the paper ("when
   upgrading a switch, all flows initially passing through it should be
   rerouted along other parts of the network").

   The example evacuates an aggregation switch of a loaded Fat-Tree: it
   builds the switch-upgrade event from the live state, plans it, shows
   the migration cost, and verifies the switch is traffic-free.

   Run with: dune exec examples/switch_upgrade.exe *)

let () =
  let scenario = Scenario.prepare ~utilization:0.60 ~seed:11 () in
  let net = scenario.Scenario.net in
  let ft = scenario.Scenario.fat_tree in
  let switch = Fat_tree.aggregation ft ~pod:2 1 in
  let before = List.length (Net_state.flows_through_node net switch) in
  Format.printf "upgrading aggregation switch %d (pod 2): %d flows cross it@."
    switch before;

  let event = Event.switch_upgrade_event net ~id:0 ~arrival_s:0.0 ~switch in
  let plan = Planner.plan net event in
  Format.printf "%a@." Planner.pp plan;

  let evacuated =
    List.for_all
      (fun (p : Net_state.placed) ->
        not (Path.mentions_node p.Net_state.path switch))
      (Net_state.flows_through_node net switch)
  in
  let remaining = List.length (Net_state.flows_through_node net switch) in
  Format.printf
    "after the update: %d flows still cross the switch (%d rerouted, %d \
     unsatisfiable)@."
    remaining
    (before - remaining)
    plan.Planner.failed_count;
  Format.printf "make-room migration cost: %.1f Mbit over %d extra moves@."
    plan.Planner.cost_mbit plan.Planner.move_count;
  Format.printf "virtual execution time: %.3f s@."
    (Exec_model.execution_time plan);
  assert (evacuated || plan.Planner.failed_count > 0);
  match Net_state.invariants_ok net with
  | Ok () -> Format.printf "network invariants hold@."
  | Error e -> failwith e
