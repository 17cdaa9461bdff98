(* nu_dataplane: rules, switch tables, packet walking, two-phase
   consistent updates; and Nu_update.Ordering (Dionysus-style rounds). *)

let of_spec = Test_util.of_spec

let topo4 () = Fat_tree.to_topology (Fat_tree.create ~k:4 ())

let flow ?(id = 0) ?(demand = 100.0) ?(duration = 10.0) src dst =
  Flow_record.v ~id ~src ~dst ~size_mbit:(demand *. duration)
    ~duration_s:duration ~arrival_s:0.0

let place_exn net record =
  match Routing.select net record with
  | None -> Alcotest.fail "no feasible path"
  | Some path -> (
      match Net_state.place net record path with
      | Ok () -> path
      | Error _ -> Alcotest.fail "placement failed")

let loaded_net () =
  let net = Net_state.create (topo4 ()) in
  let next = ref 100 in
  for src = 0 to 7 do
    let dst = 15 - src in
    let r = flow ~id:!next ~demand:250.0 src dst in
    incr next;
    ignore (place_exn net r)
  done;
  net

(* ------------------------------------------------------------------ *)
(* Rule / Switch_table                                                 *)

let test_rule_validation () =
  let r = Rule.v ~flow_id:1 ~version:0 ~out_edge:5 in
  Alcotest.(check bool) "matches" true (Rule.matches r ~flow_id:1 ~version:0);
  Alcotest.(check bool) "wrong version" false (Rule.matches r ~flow_id:1 ~version:1);
  Alcotest.check_raises "negative" (Invalid_argument "Rule.v: flow_id")
    (fun () -> ignore (Rule.v ~flow_id:(-1) ~version:0 ~out_edge:0))

let test_switch_table_basics () =
  let t = Switch_table.create () in
  Switch_table.install t (Rule.v ~flow_id:1 ~version:0 ~out_edge:3);
  Switch_table.install t (Rule.v ~flow_id:1 ~version:1 ~out_edge:4);
  Switch_table.install t (Rule.v ~flow_id:2 ~version:0 ~out_edge:5);
  Alcotest.(check int) "count" 3 (Switch_table.rule_count t);
  Alcotest.(check (list int)) "versions" [ 0; 1 ] (Switch_table.versions_of t ~flow_id:1);
  (match Switch_table.lookup t ~flow_id:1 ~version:1 with
  | Some r -> Alcotest.(check int) "out edge" 4 r.Rule.out_edge
  | None -> Alcotest.fail "installed");
  Alcotest.(check bool) "uninstall" true (Switch_table.uninstall t ~flow_id:1 ~version:0);
  Alcotest.(check bool) "uninstall twice" false (Switch_table.uninstall t ~flow_id:1 ~version:0);
  Alcotest.(check int) "count after" 2 (Switch_table.rule_count t)

let test_switch_table_idempotent_install () =
  let t = Switch_table.create () in
  let r = Rule.v ~flow_id:1 ~version:0 ~out_edge:3 in
  Switch_table.install t r;
  Switch_table.install t r;
  Alcotest.(check int) "single rule" 1 (Switch_table.rule_count t)

let test_switch_table_stamps () =
  let t = Switch_table.create () in
  Alcotest.(check bool) "no stamp" true (Switch_table.stamp t ~flow_id:1 = None);
  Switch_table.set_stamp t ~flow_id:1 ~version:3;
  Alcotest.(check (option int)) "stamped" (Some 3) (Switch_table.stamp t ~flow_id:1);
  Switch_table.clear_stamp t ~flow_id:1;
  Alcotest.(check bool) "cleared" true (Switch_table.stamp t ~flow_id:1 = None)

(* ------------------------------------------------------------------ *)
(* Fabric                                                              *)

let test_fabric_of_net_delivers () =
  let net = loaded_net () in
  let fabric = Fabric.of_net net in
  match Fabric.verify_all fabric net with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_fabric_rule_budget () =
  let net = loaded_net () in
  let fabric = Fabric.of_net net in
  (* One rule per hop per flow. *)
  let expected = ref 0 in
  Net_state.iter_flows net (fun p -> expected := !expected + Path.hops p.Net_state.path);
  Alcotest.(check int) "rules = total hops" !expected (Fabric.total_rules fabric)

let test_fabric_black_hole () =
  let net = loaded_net () in
  let fabric = Fabric.of_net net in
  (* A flow with no ingress stamp is black-holed at injection. *)
  match Fabric.forward fabric ~flow_id:9999 ~src:0 with
  | Fabric.Black_hole { at } -> Alcotest.(check int) "at injection" 0 at
  | _ -> Alcotest.fail "expected black hole"

let test_fabric_broken_rule_detected () =
  let net = loaded_net () in
  let fabric = Fabric.of_net net in
  (* Remove a mid-path rule: the packet must strand before its dst. *)
  let placed = Option.get (Net_state.flow net 100) in
  let path = placed.Net_state.path in
  let mid_edge = List.nth (Path.edges path) 2 in
  ignore
    (Switch_table.uninstall
       (Fabric.table fabric mid_edge.Graph.src)
       ~flow_id:100 ~version:0);
  match Fabric.verify_flow fabric net ~flow_id:100 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "must detect the stranded packet"

let test_fabric_loop_detected () =
  let g = Graph.create ~initial_nodes:2 () in
  let e01, e10 = Graph.add_link g ~a:0 ~b:1 ~capacity:10.0 in
  let fabric = Fabric.create g in
  Switch_table.install (Fabric.table fabric 0) (Rule.v ~flow_id:1 ~version:0 ~out_edge:e01);
  Switch_table.install (Fabric.table fabric 1) (Rule.v ~flow_id:1 ~version:0 ~out_edge:e10);
  Fabric.set_ingress fabric ~flow_id:1 ~ingress:0 ~version:0;
  match Fabric.forward fabric ~flow_id:1 ~src:0 with
  | Fabric.Looped _ -> ()
  | _ -> Alcotest.fail "expected loop detection"

(* ------------------------------------------------------------------ *)
(* Two-phase updates                                                   *)

(* Apply an update event, then run the two-phase protocol over the
   implied transitions, verifying per-flow consistency after EVERY
   intermediate step. Brand-new flows only become live at their flip, so
   the verified set grows as flips land. *)
let run_two_phase_verified net =
  let fabric = Fabric.of_net net in
  let live = Hashtbl.create 64 in
  Net_state.iter_flows net (fun p ->
      Hashtbl.replace live p.Net_state.record.Flow_record.id ());
  let verify_live stage_name =
    Hashtbl.iter
      (fun flow_id () ->
        match Fabric.verify_flow fabric net ~flow_id with
        | Ok () -> ()
        | Error e -> Alcotest.fail (stage_name ^ ": " ^ e))
      live
  in
  let ev =
    of_spec
      {
        Event_gen.event_id = 0;
        arrival_s = 0.0;
        flows =
          [
            flow ~id:0 ~demand:300.0 0 15;
            flow ~id:1 ~demand:200.0 1 14;
            flow ~id:2 ~demand:10.0 2 13;
          ];
      }
  in
  let plan = Planner.plan net ev in
  Alcotest.(check int) "plan satisfiable" 0 plan.Planner.failed_count;
  let transitions = Two_phase.transitions_of_plan fabric plan in
  (* Stage: old paths must still be in force for every live flow. *)
  let _installed = Two_phase.stage fabric transitions in
  verify_live "after stage";
  (* Flip one by one; consistency must hold between every flip, and the
     flipped flow becomes live. *)
  List.iter
    (fun tr ->
      Two_phase.flip fabric tr;
      Hashtbl.replace live tr.Two_phase.flow_id ();
      verify_live "mid-flip")
    transitions;
  List.iter (fun tr -> ignore (Two_phase.collect fabric tr)) transitions;
  verify_live "after gc";
  (* Every placed flow must be live by now — full check. *)
  (match Fabric.verify_all fabric net with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("final: " ^ e));
  (fabric, plan, transitions)

let test_two_phase_consistency () =
  let net = loaded_net () in
  ignore (run_two_phase_verified net)

let test_two_phase_rule_counts () =
  let net = loaded_net () in
  let fabric = Fabric.of_net net in
  let base_rules = Fabric.total_rules fabric in
  let ev = of_spec { Event_gen.event_id = 0; arrival_s = 0.0;
                           flows = [ flow ~id:0 ~demand:300.0 0 15 ] } in
  let plan = Planner.plan net ev in
  let transitions = Two_phase.transitions_of_plan fabric plan in
  let stats = Two_phase.execute fabric transitions in
  Alcotest.(check int) "stats count transitions"
    (List.length transitions) stats.Two_phase.transitions;
  Alcotest.(check bool) "peak >= installs of new flow" true
    (stats.Two_phase.peak_extra_rules >= Path.hops
       (match plan.Planner.items with
        | [ { Planner.outcome = Planner.Installed { path; _ }; _ } ] -> path
        | _ -> Alcotest.fail "single install"));
  (* Final rule budget: base + new paths - old paths. *)
  let expected = ref 0 in
  Net_state.iter_flows net (fun p -> expected := !expected + Path.hops p.Net_state.path);
  Alcotest.(check int) "final rules match placements" !expected
    (Fabric.total_rules fabric);
  ignore base_rules

let test_two_phase_version_bump () =
  let net = loaded_net () in
  let fabric = Fabric.of_net net in
  (* Reroute an existing flow: its version must go 0 -> 1. *)
  let placed = Option.get (Net_state.flow net 100) in
  let other =
    List.find
      (fun p -> not (Path.equal p placed.Net_state.path))
      (Test_util.candidate_paths net placed.Net_state.record)
  in
  (match Net_state.reroute net 100 other with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "reroute feasible");
  let tr =
    Two_phase.
      {
        flow_id = 100;
        old_path = Some placed.Net_state.path;
        new_path = other;
        old_version = 0;
        new_version = 1;
      }
  in
  ignore (Two_phase.stage fabric [ tr ]);
  Two_phase.flip fabric tr;
  ignore (Two_phase.collect fabric tr);
  (match Switch_table.stamp (Fabric.table fabric (Path.src other)) ~flow_id:100 with
  | Some 1 -> ()
  | _ -> Alcotest.fail "stamp must be at version 1");
  match Fabric.verify_flow fabric net ~flow_id:100 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let prop_two_phase_random_flip_order =
  QCheck.Test.make ~name:"two-phase consistency under any flip order" ~count:15
    QCheck.small_int
    (fun seed ->
      let net = loaded_net () in
      let fabric = Fabric.of_net net in
      let rng = Prng.create seed in
      let specs = Event_gen.generate ~first_flow_id:10_000
          ~shape:(Event_gen.Range (3, 8)) rng ~host_count:16 ~n_events:1 in
      let ev = of_spec (List.hd specs) in
      let plan = Planner.plan net ev in
      let transitions = Array.of_list (Two_phase.transitions_of_plan fabric plan) in
      ignore (Two_phase.stage fabric (Array.to_list transitions));
      Prng.shuffle rng transitions;
      let live = Hashtbl.create 64 in
      Net_state.iter_flows net (fun p ->
          Hashtbl.replace live p.Net_state.record.Flow_record.id ());
      (* New flows go live only at their flip. *)
      Array.iter
        (fun tr ->
          match tr.Two_phase.old_path with
          | None -> Hashtbl.remove live tr.Two_phase.flow_id
          | Some _ -> ())
        transitions;
      Array.for_all
        (fun tr ->
          Two_phase.flip fabric tr;
          Hashtbl.replace live tr.Two_phase.flow_id ();
          Hashtbl.fold
            (fun flow_id () ok ->
              ok && Fabric.verify_flow fabric net ~flow_id = Ok ())
            live true)
        transitions)

(* ------------------------------------------------------------------ *)
(* Two_phase under install faults                                      *)

(* A reroute transition for flow 100 built without touching the net, so
   the net still describes the OLD configuration: if the two-phase
   update is rolled back, fabric and net must agree again. *)
let reroute_transition net =
  let placed = Option.get (Net_state.flow net 100) in
  let other =
    List.find
      (fun p -> not (Path.equal p placed.Net_state.path))
      (Test_util.candidate_paths net placed.Net_state.record)
  in
  Two_phase.
    {
      flow_id = 100;
      old_path = Some placed.Net_state.path;
      new_path = other;
      old_version = 0;
      new_version = 1;
    }

let no_fault ~switch:_ ~flow_id:_ = None

let test_two_phase_faults_clean_oracle () =
  let net = loaded_net () in
  let fabric_a = Fabric.of_net net in
  let fabric_b = Fabric.of_net net in
  let tr = reroute_transition net in
  let stats = Two_phase.execute fabric_a [ tr ] in
  let report = Two_phase.execute_with_faults fabric_b ~fault:no_fault [ tr ] in
  Alcotest.(check bool) "same stats as execute" true
    (stats = report.Two_phase.stats);
  Alcotest.(check (list int)) "nothing dropped" []
    report.Two_phase.dropped_flow_ids;
  Alcotest.(check int) "same rule total"
    (Fabric.total_rules fabric_a) (Fabric.total_rules fabric_b)

let test_two_phase_dropped_install_rolls_back () =
  let net = loaded_net () in
  let fabric = Fabric.of_net net in
  let rules_before = Fabric.total_rules fabric in
  let tr = reroute_transition net in
  (* Drop every install of flow 100: the transition must be unstaged and
     never flipped, leaving the tables in the old configuration. *)
  let fault ~switch:_ ~flow_id =
    if flow_id = 100 then Some `Drop else None
  in
  let report = Two_phase.execute_with_faults fabric ~fault [ tr ] in
  Alcotest.(check (list int)) "transition aborted" [ 100 ]
    report.Two_phase.dropped_flow_ids;
  Alcotest.(check int) "no flips" 0 report.Two_phase.stats.Two_phase.flips;
  Alcotest.(check int) "staged rules unstaged" rules_before
    (Fabric.total_rules fabric);
  (match Switch_table.stamp
           (Fabric.table fabric (Path.src tr.Two_phase.new_path))
           ~flow_id:100 with
  | Some 0 -> ()
  | _ -> Alcotest.fail "ingress stamp must still be at the old version");
  (* The dataplane still forwards flow 100 along its old path. *)
  match Fabric.verify_all fabric net with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("old configuration must survive: " ^ e)

let test_two_phase_delayed_install_still_flips () =
  let net = loaded_net () in
  let fabric = Fabric.of_net net in
  let tr = reroute_transition net in
  let fault ~switch:_ ~flow_id =
    if flow_id = 100 then Some (`Delay 0.002) else None
  in
  let report = Two_phase.execute_with_faults fabric ~fault [ tr ] in
  Alcotest.(check (list int)) "late acks do not abort" []
    report.Two_phase.dropped_flow_ids;
  Alcotest.(check int) "flip issued" 1 report.Two_phase.stats.Two_phase.flips;
  Alcotest.(check int) "every hop acked late"
    (Path.hops tr.Two_phase.new_path) report.Two_phase.delayed_hops;
  Alcotest.(check (float 1e-9)) "latency accumulates"
    (0.002 *. float_of_int (Path.hops tr.Two_phase.new_path))
    report.Two_phase.extra_latency_s;
  (* The flow moved: re-point the net at the new path to verify. *)
  (match Net_state.reroute net 100 tr.Two_phase.new_path with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "reroute feasible");
  match Fabric.verify_all fabric net with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("new configuration must be live: " ^ e)

let test_two_phase_mixed_batch_partial_abort () =
  let net = loaded_net () in
  let fabric = Fabric.of_net net in
  let ev =
    of_spec
      {
        Event_gen.event_id = 0;
        arrival_s = 0.0;
        flows = [ flow ~id:0 ~demand:10.0 0 15; flow ~id:1 ~demand:10.0 2 13 ];
      }
  in
  let plan = Planner.plan net ev in
  Alcotest.(check int) "plan satisfiable" 0 plan.Planner.failed_count;
  let transitions = Two_phase.transitions_of_plan fabric plan in
  (* Fail only flow 0's installs; flow 1 (and any migrations) proceed. *)
  let fault ~switch:_ ~flow_id = if flow_id = 0 then Some `Drop else None in
  let report = Two_phase.execute_with_faults fabric ~fault transitions in
  Alcotest.(check (list int)) "only flow 0 aborted" [ 0 ]
    report.Two_phase.dropped_flow_ids;
  Alcotest.(check int) "the rest flipped"
    (List.length transitions - 1)
    report.Two_phase.stats.Two_phase.flips;
  (* Flow 0 never went live; drop it from the net before verifying. *)
  (match Net_state.remove net 0 with Ok _ | Error `Not_found -> ());
  match Fabric.verify_all fabric net with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("surviving flows must verify: " ^ e)

(* ------------------------------------------------------------------ *)
(* Ordering                                                            *)

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

let suite =
  [
    ("rule validation", `Quick, test_rule_validation);
    ("switch table basics", `Quick, test_switch_table_basics);
    ("switch table idempotent", `Quick, test_switch_table_idempotent_install);
    ("switch table stamps", `Quick, test_switch_table_stamps);
    ("fabric delivers", `Quick, test_fabric_of_net_delivers);
    ("fabric rule budget", `Quick, test_fabric_rule_budget);
    ("fabric black hole", `Quick, test_fabric_black_hole);
    ("fabric broken rule", `Quick, test_fabric_broken_rule_detected);
    ("fabric loop", `Quick, test_fabric_loop_detected);
    ("two-phase consistency", `Quick, test_two_phase_consistency);
    ("two-phase rule counts", `Quick, test_two_phase_rule_counts);
    ("two-phase version bump", `Quick, test_two_phase_version_bump);
    QCheck_alcotest.to_alcotest prop_two_phase_random_flip_order;
    ("two-phase clean oracle", `Quick, test_two_phase_faults_clean_oracle);
    ("two-phase drop rolls back", `Quick, test_two_phase_dropped_install_rolls_back);
    ("two-phase delay still flips", `Quick, test_two_phase_delayed_install_still_flips);
    ("two-phase partial abort", `Quick, test_two_phase_mixed_batch_partial_abort);
    ("ordering empty", `Quick, test_ordering_empty);
    ("ordering plan moves", `Quick, test_ordering_plan_moves);
    ("ordering unknown flow", `Quick, test_ordering_unknown_flow);
    ("ordering dependency rounds", `Quick, test_ordering_dependency_rounds);
    ("ordering deadlock", `Quick, test_ordering_deadlock);
    ("ordering verify", `Quick, test_ordering_verify);
    ("ordering verify bogus", `Quick, test_ordering_verify_rejects_bogus);
    ("ordering state unchanged", `Quick, test_ordering_leaves_state_unchanged);
  ]
