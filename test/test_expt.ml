(* nu_expt: figure regenerators and the worked examples. *)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec scan i = i + n <= h && (String.sub hay i n = needle || scan (i + 1)) in
  n = 0 || scan 0

(* ------------------------------------------------------------------ *)
(* Table                                                               *)

let test_table_renders () =
  let t = Nu_expt.Table.create ~title:"demo" ~columns:[ "a"; "bb" ] in
  Nu_expt.Table.add_floats t [ 1.5; 2.25 ];
  Nu_expt.Table.add_mixed t "label" [ 3.0 ];
  let s = Nu_expt.Table.to_string t in
  Alcotest.(check bool) "title" true (contains ~needle:"## demo" s);
  Alcotest.(check bool) "header" true (contains ~needle:"a" s);
  Alcotest.(check bool) "float row" true (contains ~needle:"2.25" s);
  Alcotest.(check bool) "label row" true (contains ~needle:"label" s)

let test_table_row_mismatch () =
  let t = Nu_expt.Table.create ~title:"demo" ~columns:[ "a"; "b" ] in
  Alcotest.check_raises "mismatch" (Invalid_argument "Table.add_row: cell count mismatch")
    (fun () -> Nu_expt.Table.add_floats t [ 1.0 ]);
  Alcotest.check_raises "mismatch" (Invalid_argument "Table.add_row: cell count mismatch")
    (fun () -> Nu_expt.Table.add_mixed t "only-one" [])

(* ------------------------------------------------------------------ *)
(* Fig. 2 / Fig. 3 worked examples                                     *)

let test_fig2_event_level () =
  let s = Nu_expt.Fig2.event_level ~flows_per_event:[ 4; 4; 4 ] in
  Alcotest.(check (list int)) "completions" [ 4; 8; 12 ] s.Nu_expt.Fig2.completions;
  Alcotest.(check (float 1e-9)) "average" 8.0 s.Nu_expt.Fig2.average;
  Alcotest.(check int) "tail" 12 s.Nu_expt.Fig2.tail

let test_fig2_flow_level () =
  let s = Nu_expt.Fig2.flow_level ~flows_per_event:[ 4; 4; 4 ] in
  Alcotest.(check (list int)) "round robin completions" [ 10; 11; 12 ]
    s.Nu_expt.Fig2.completions;
  Alcotest.(check int) "tail equal to event-level" 12 s.Nu_expt.Fig2.tail

let test_fig2_uneven_events () =
  let el = Nu_expt.Fig2.event_level ~flows_per_event:[ 3; 4; 5 ] in
  let fl = Nu_expt.Fig2.flow_level ~flows_per_event:[ 3; 4; 5 ] in
  Alcotest.(check (list int)) "event-level" [ 3; 7; 12 ] el.Nu_expt.Fig2.completions;
  Alcotest.(check bool) "event-level average smaller" true
    (el.Nu_expt.Fig2.average < fl.Nu_expt.Fig2.average);
  Alcotest.(check int) "tails equal" el.Nu_expt.Fig2.tail fl.Nu_expt.Fig2.tail

let test_fig3_paper_numbers () =
  let fifo = Nu_expt.Fig3.completions Nu_expt.Fig3.paper_events in
  Alcotest.(check (float 1e-9)) "fifo average" 7.0 (Nu_expt.Fig3.average fifo);
  Alcotest.(check (float 1e-9)) "fifo tail" 9.0 (Nu_expt.Fig3.tail fifo);
  let by_cost =
    Nu_expt.Fig3.completions
      (List.stable_sort
         (fun a b -> compare a.Nu_expt.Fig3.cost_s b.Nu_expt.Fig3.cost_s)
         Nu_expt.Fig3.paper_events)
  in
  Alcotest.(check (float 1e-9)) "reordered average" 5.0
    (Nu_expt.Fig3.average by_cost);
  Alcotest.(check (float 1e-9)) "same tail" 9.0 (Nu_expt.Fig3.tail by_cost)

(* ------------------------------------------------------------------ *)
(* Fig. 1 (150 probe flows per point)                                   *)

let test_fig1_probabilities_decline () =
  let points = Nu_expt.Fig1.compute ~seed:3 ~samples:150 in
  Alcotest.(check int) "two traces x nine utils" 18 (List.length points);
  List.iter
    (fun (p : Nu_expt.Fig1.point) ->
      Alcotest.(check bool) "probability range" true
        (p.Nu_expt.Fig1.p_desired_all >= 0.0 && p.Nu_expt.Fig1.p_desired_all <= 1.0))
    points;
  let find trace u =
    List.find
      (fun (p : Nu_expt.Fig1.point) ->
        p.Nu_expt.Fig1.trace = trace
        && abs_float (p.Nu_expt.Fig1.utilization -. u) < 1e-9)
      points
  in
  List.iter
    (fun trace ->
      let low = find trace 0.2 and high = find trace 0.8 in
      Alcotest.(check bool)
        (trace ^ ": success falls with utilization")
        true
        (low.Nu_expt.Fig1.p_desired_all >= high.Nu_expt.Fig1.p_desired_all))
    [ "yahoo"; "random" ]

(* ------------------------------------------------------------------ *)
(* Workload harness                                                    *)

let small_setup =
  {
    Nu_expt.Workload.default_setup with
    Nu_expt.Workload.n_events = 5;
    shape = Event_gen.Range (5, 10);
    utilization = 0.5;
  }

(* One seed: each policy runs once on the same prepared scenario. *)
let run_once setup policies =
  List.concat_map snd
    (Nu_expt.Workload.averaged setup ~seeds:[ setup.Nu_expt.Workload.seed ]
       policies)

let test_workload_run_policies () =
  let summaries = run_once small_setup [ Policy.Fifo; Policy.Lmtf { alpha = 2 } ] in
  Alcotest.(check int) "one summary per policy" 2 (List.length summaries);
  List.iter
    (fun (s : Metrics.summary) ->
      Alcotest.(check int) "events" 5 s.Metrics.n_events)
    summaries

let test_workload_averaged () =
  let per_policy =
    Nu_expt.Workload.averaged small_setup ~seeds:[ 1; 2 ] [ Policy.Fifo ]
  in
  match per_policy with
  | [ (Policy.Fifo, summaries) ] ->
      Alcotest.(check int) "two replicates" 2 (List.length summaries);
      let m = Nu_expt.Workload.mean_of (fun s -> s.Metrics.avg_ect_s) summaries in
      Alcotest.(check bool) "positive" true (m > 0.0)
  | _ -> Alcotest.fail "unexpected shape"

let test_workload_reduction_pct () =
  Alcotest.(check (float 1e-9)) "50%" 50.0
    (Nu_expt.Workload.reduction_pct ~baseline:10.0 5.0);
  Alcotest.(check (float 1e-9)) "degenerate baseline" 0.0
    (Nu_expt.Workload.reduction_pct ~baseline:0.0 5.0)

let test_event_level_beats_flow_level_small () =
  let summaries =
    run_once small_setup [ Policy.Fifo; Policy.Flow_level Policy.Round_robin ]
  in
  match summaries with
  | [ fifo; fl ] ->
      Alcotest.(check bool) "event-level faster on average" true
        (fifo.Metrics.avg_ect_s <= fl.Metrics.avg_ect_s)
  | _ -> Alcotest.fail "two summaries"

let test_arrival_study_structure () =
  let points = Nu_expt.Arrival_study.compute ~seed:4 ~alpha:4 in
  Alcotest.(check int) "five points" 5 (List.length points);
  List.iter
    (fun (p : Nu_expt.Arrival_study.point) ->
      Alcotest.(check bool) "positive ECTs" true
        (p.Nu_expt.Arrival_study.fifo_avg_ect > 0.0
        && p.Nu_expt.Arrival_study.lmtf_avg_ect > 0.0
        && p.Nu_expt.Arrival_study.plmtf_avg_ect > 0.0))
    points;
  (* With 4 s between events nothing queues: delays are ~0 and the
     policies coincide. *)
  let sparse = List.nth points 4 in
  Alcotest.(check bool) "no backlog at sparse arrivals" true
    (sparse.Nu_expt.Arrival_study.fifo_avg_q < 1.0)

(* One 6-event queue length, built as [Fig6.sweep] builds each of its
   points. *)
let test_fig6_compute_smoke () =
  let setup = { Nu_expt.Workload.default_setup with Nu_expt.Workload.n_events = 6 } in
  let point =
    match
      Nu_expt.Workload.averaged setup ~seeds:[ 42 ]
        [ Policy.Fifo; Policy.Lmtf { alpha = 2 }; Policy.Plmtf { alpha = 2 } ]
    with
    | [ (_, fifo); (_, lmtf); (_, plmtf) ] ->
        { Nu_expt.Fig6.sweep_events = 6; fifo; lmtf; plmtf }
    | _ -> Alcotest.fail "three policies"
  in
  match Nu_expt.Fig6.of_sweep [ point ] with
  | [ p ] ->
      Alcotest.(check int) "n" 6 p.Nu_expt.Fig6.n_events;
      (* Reductions are percentages; they must be finite and below 100. *)
      List.iter
        (fun v ->
          Alcotest.(check bool) "finite" true (Float.is_finite v);
          Alcotest.(check bool) "<=100" true (v <= 100.0))
        [
          p.Nu_expt.Fig6.lmtf_avg_red;
          p.Nu_expt.Fig6.plmtf_avg_red;
          p.Nu_expt.Fig6.lmtf_tail_red;
          p.Nu_expt.Fig6.plmtf_tail_red;
        ];
      Alcotest.(check bool) "plan times positive" true
        (p.Nu_expt.Fig6.fifo_plan_s > 0.0 && p.Nu_expt.Fig6.lmtf_plan_s > 0.0)
  | _ -> Alcotest.fail "one point"

(* The mixed queue holds 12 additions, 8 VM migrations, 6 switch
   upgrades and 4 link failures with dense ids; both directions of each
   failed link are disabled in the returned net, and FIFO serves all
   30 events on it. *)
let test_mixed_build_events () =
  let scenario = Scenario.prepare ~utilization:0.50 ~seed:6 () in
  let events, net = Nu_expt.Mixed_issues.build_events scenario ~seed:7 in
  Alcotest.(check int) "total events" 30 (List.length events);
  let ids = List.map (fun ev -> ev.Event.id) events in
  Alcotest.(check (list int)) "dense ids" (List.init 30 Fun.id)
    (List.sort compare ids);
  let count pred = List.length (List.filter pred events) in
  Alcotest.(check int) "additions" 12
    (count (fun ev -> ev.Event.kind = Event.Additions));
  Alcotest.(check int) "vm" 8
    (count (fun ev -> ev.Event.kind = Event.Vm_migration));
  Alcotest.(check int) "upgrades" 6
    (count (fun ev ->
         match ev.Event.kind with Event.Switch_upgrade _ -> true | _ -> false));
  Alcotest.(check int) "failures" 4
    (count (fun ev ->
         match ev.Event.kind with Event.Link_failure _ -> true | _ -> false));
  let disabled =
    List.length
      (List.filter (Net_state.edge_disabled net)
         (List.init (Graph.edge_count (Net_state.graph net)) Fun.id))
  in
  Alcotest.(check int) "eight directed edges disabled" 8 disabled;
  let run = Engine.run ~seed:8 ~net:(Net_state.copy net) ~events Policy.Fifo in
  Alcotest.(check int) "all completed" 30 (Array.length run.Engine.events)

let suite =
  [
    ("table renders", `Quick, test_table_renders);
    ("fig6 compute smoke", `Slow, test_fig6_compute_smoke);
    ("mixed build events", `Slow, test_mixed_build_events);
    ("arrival study", `Slow, test_arrival_study_structure);
    ("table mismatch", `Quick, test_table_row_mismatch);
    ("fig2 event-level", `Quick, test_fig2_event_level);
    ("fig2 flow-level", `Quick, test_fig2_flow_level);
    ("fig2 uneven", `Quick, test_fig2_uneven_events);
    ("fig3 paper numbers", `Quick, test_fig3_paper_numbers);
    ("fig1 declines", `Slow, test_fig1_probabilities_decline);
    ("workload run", `Slow, test_workload_run_policies);
    ("workload averaged", `Slow, test_workload_averaged);
    ("workload reduction", `Quick, test_workload_reduction_pct);
    ("event vs flow small", `Slow, test_event_level_beats_flow_level_small);
  ]
