(* Core.Scenario: the canned experiment fixtures. Heavier than the unit
   suites (each prepare fills a k=8 Fat-Tree), so most cases are `Slow. *)

let test_prepare_reaches_target () =
  let s = Scenario.prepare ~utilization:0.5 ~seed:3 () in
  Alcotest.(check bool) "fabric utilization at target" true
    (Net_state.mean_fabric_utilization s.Scenario.net >= 0.5 -. 1e-6);
  Alcotest.(check int) "hosts" 128 s.Scenario.host_count;
  match Net_state.invariants_ok s.Scenario.net with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* The background fill caps host-access links at
   min(0.95, max(0.75, target + 0.15)): 0.75 for a 50% target. *)
let test_prepare_access_cap () =
  let s = Scenario.prepare ~utilization:0.5 ~seed:3 () in
  let topo = s.Scenario.topology in
  Graph.fold_edges (Net_state.graph s.Scenario.net) ~init:() ~f:(fun () e ->
      if Topology.is_host topo e.Graph.src || Topology.is_host topo e.Graph.dst
      then
        Alcotest.(check bool) "access link under cap" true
          (Net_state.edge_utilization s.Scenario.net e.Graph.id
          <= 0.75 +. 1e-9))

let test_prepare_deterministic () =
  let a = Scenario.prepare ~utilization:0.4 ~seed:9 () in
  let b = Scenario.prepare ~utilization:0.4 ~seed:9 () in
  Alcotest.(check int) "same flow count"
    (Net_state.flow_count a.Scenario.net)
    (Net_state.flow_count b.Scenario.net);
  let res net =
    Array.init
      (Graph.edge_count (Net_state.graph net))
      (fun i -> Net_state.residual net i)
  in
  Alcotest.(check bool) "same residuals" true (res a.Scenario.net = res b.Scenario.net)

let test_prepare_benson_background () =
  let s = Scenario.prepare ~utilization:0.3 ~seed:5 ~background:Scenario.Benson () in
  Alcotest.(check bool) "filled" true
    (s.Scenario.background_report.Background.placed > 0)

let test_events_shapes () =
  let s = Scenario.prepare ~utilization:0.3 ~seed:5 () in
  let events = Scenario.events ~shape:(Event_gen.Range (5, 9)) s ~n:7 in
  Alcotest.(check int) "count" 7 (List.length events);
  List.iter
    (fun ev ->
      let n = Event.work_count ev in
      Alcotest.(check bool) "flows in range" true (n >= 5 && n <= 9))
    events;
  (* Flow ids must not collide with background ids. *)
  List.iter
    (fun ev ->
      List.iter
        (fun (r : Flow_record.t) ->
          Alcotest.(check bool) "namespaced ids" true (r.Flow_record.id >= 1_000_000))
        (List.filter_map
           (function Event.Install r -> Some r | Event.Reroute _ -> None)
           ev.Event.work))
    events

let test_churn_deterministic () =
  let s = Scenario.prepare ~utilization:0.3 ~seed:5 () in
  let c1 = Scenario.churn ~seed:11 s in
  let c2 = Scenario.churn ~seed:11 s in
  let f1 = c1.Engine.make_flow ~id:10_000_000 in
  let f2 = c2.Engine.make_flow ~id:10_000_000 in
  Alcotest.(check bool) "same stream" true (f1 = f2);
  Alcotest.(check int) "id namespace" 10_000_000 c1.Engine.first_id

(* The k=16 Fat-Tree (1,024 hosts, 320 switches) fits in memory: its
   interior memo holds about 1 M paths, where a host-pair memo would
   hold about 67 M (some 10 GB). A prepare at 70% plus a short LMTF run
   must keep the process's top heap under 1 GB. *)
let test_k16_fits_one_gb () =
  let s = Scenario.prepare ~k:16 ~seed:1 ~background:Scenario.Benson () in
  Alcotest.(check int) "hosts" 1024 s.Scenario.host_count;
  let events = Scenario.events ~shape:Event_gen.Synchronous s ~n:8 in
  let run =
    Engine.run ~seed:5 ~net:s.Scenario.net ~events (Policy.Lmtf { alpha = 4 })
  in
  Alcotest.(check int) "every event ran" 8 (Array.length run.Engine.events);
  let top_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1e6
  in
  if top_mb > 1000.0 then Alcotest.failf "top heap %.0f MB (gate: 1000)" top_mb

let suite =
  [
    ("prepare reaches target", `Slow, test_prepare_reaches_target);
    ("prepare access cap", `Slow, test_prepare_access_cap);
    ("prepare deterministic", `Slow, test_prepare_deterministic);
    ("prepare benson", `Slow, test_prepare_benson_background);
    ("events shapes", `Slow, test_events_shapes);
    ("churn deterministic", `Slow, test_churn_deterministic);
    ("k=16 prepare and LMTF run fit 1 GB", `Slow, test_k16_fits_one_gb);
  ]
