let alpha_sweep ?(seeds = [ 42; 43 ]) ?(alphas = [ 1; 2; 4; 8 ]) () =
  let setup = Workload.default_setup in
  let table =
    Table.create
      ~title:"Ablation: sample size alpha (30 events, churn, vs FIFO)"
      ~columns:
        [
          "alpha";
          "lmtf_avg_red%";
          "lmtf_tail_red%";
          "plmtf_avg_red%";
          "plmtf_tail_red%";
          "plmtf_planx";
        ]
  in
  List.iter
    (fun alpha ->
      let results =
        Workload.averaged setup ~seeds
          [ Policy.Fifo; Policy.Lmtf { alpha }; Policy.Plmtf { alpha } ]
      in
      match results with
      | [ (_, fifo); (_, lmtf); (_, plmtf) ] ->
          let mean = Workload.mean_of in
          let avg s = s.Metrics.avg_ect_s and tail s = s.Metrics.tail_ect_s in
          let plan s = s.Metrics.total_plan_time_s in
          let red get better =
            Workload.reduction_pct ~baseline:(mean get fifo) (mean get better)
          in
          Table.add_floats table
            [
              float_of_int alpha;
              red avg lmtf;
              red tail lmtf;
              red avg plmtf;
              red tail plmtf;
              mean plan plmtf /. mean plan fifo;
            ]
      | _ -> assert false)
    alphas;
  Table.print table

(* One sequential planning pass (FIFO order, no engine) under a given
   planner configuration; reports aggregate cost/move/unit counts. *)
let planning_pass ~seed config =
  let scenario = Scenario.prepare ~utilization:0.70 ~seed () in
  let events = Scenario.events scenario ~n:30 in
  let net = Net_state.copy scenario.Scenario.net in
  List.fold_left
    (fun (cost, moves, failed, units) ev ->
      let plan = Planner.plan ~config net ev in
      ( cost +. plan.Planner.cost_mbit,
        moves + plan.Planner.move_count,
        failed + plan.Planner.failed_count,
        units + plan.Planner.work_units ))
    (0.0, 0, 0, 0) events

let migration_order ?(seed = 42) () =
  let table =
    Table.create
      ~title:"Ablation: migration-set greedy order (30 events, one pass)"
      ~columns:[ "order"; "cost_mbit"; "moves"; "failed"; "plan_units" ]
  in
  List.iter
    (fun order ->
      let cost, moves, failed, units =
        planning_pass ~seed { Planner.default_config with Planner.order }
      in
      Table.add_mixed table
        (Migration.order_name order)
        [ cost; float_of_int moves; float_of_int failed; float_of_int units ])
    Migration.all_orders;
  Table.print table

let admission_mode ?(seed = 42) () =
  let table =
    Table.create
      ~title:"Ablation: admission mode (30 events, one pass)"
      ~columns:[ "admission"; "cost_mbit"; "moves"; "failed"; "plan_units" ]
  in
  List.iter
    (fun admission ->
      let cost, moves, failed, units =
        planning_pass ~seed { Planner.default_config with Planner.admission }
      in
      Table.add_mixed table
        (Planner.admission_name admission)
        [ cost; float_of_int moves; float_of_int failed; float_of_int units ])
    [ Planner.Desired_first; Planner.Scan_first ];
  Table.print table

let routing_policy ?(seed = 42) () =
  let table =
    Table.create
      ~title:"Ablation: relocation path policy (30 events, one pass)"
      ~columns:[ "policy"; "cost_mbit"; "moves"; "failed"; "plan_units" ]
  in
  List.iter
    (fun policy ->
      let cost, moves, failed, units =
        planning_pass ~seed { Planner.default_config with Planner.policy }
      in
      Table.add_mixed table
        (Routing.policy_name policy)
        [ cost; float_of_int moves; float_of_int failed; float_of_int units ])
    Routing.all_policies;
  Table.print table

let reorder_overhead ?(seeds = [ 42; 43 ]) () =
  (* The paper's §III-C/IV argument: recomputing every queued event's
     cost each round ("the intrinsic method") buys little over LMTF's
     alpha+1 samples while paying for |queue| estimates per round. *)
  let setup = Workload.default_setup in
  let table =
    Table.create
      ~title:
        "Ablation: full reordering vs sampling (30 events, churn, vs FIFO)"
      ~columns:
        [ "policy"; "avg_red%"; "tail_red%"; "cost_red%"; "plan_x_fifo" ]
  in
  let results =
    Workload.averaged setup ~seeds
      [
        Policy.Fifo;
        Policy.Lmtf { alpha = Policy.default_alpha };
        Policy.Reorder;
      ]
  in
  (match results with
  | [ (_, fifo); (_, lmtf); (_, reorder) ] ->
      let mean = Workload.mean_of in
      let avg s = s.Metrics.avg_ect_s
      and tail s = s.Metrics.tail_ect_s
      and cost s = s.Metrics.total_cost_mbit
      and plan s = s.Metrics.total_plan_time_s in
      let row name summaries =
        Table.add_mixed table name
          [
            Workload.reduction_pct ~baseline:(mean avg fifo) (mean avg summaries);
            Workload.reduction_pct ~baseline:(mean tail fifo) (mean tail summaries);
            Workload.reduction_pct ~baseline:(mean cost fifo) (mean cost summaries);
            mean plan summaries /. mean plan fifo;
          ]
      in
      row "lmtf(a=4)" lmtf;
      row "reorder" reorder
  | _ -> assert false);
  Table.print table

let co_fit_vs_utilization ?(seed = 42)
    ?(utilizations = [ 0.6; 0.7; 0.8; 0.9 ]) () =
  (* EXPERIMENTS.md note 6: opportunistic updating is a residual-capacity
     fit check, so its acceptance rate — and with it P-LMTF's edge over
     FIFO — decays as static utilisation grows. Sweeping the co-migration
     budget changes nothing (co-plans are either free or unsatisfiable),
     so the sweep is over utilisation itself. 20 events, static
     background. *)
  let table =
    Table.create
      ~title:
        "Ablation: P-LMTF opportunistic fit vs utilisation (20 events, \
         static background)"
      ~columns:
        [ "util"; "avg_red%"; "tail_red%"; "co_events"; "failed_items" ]
  in
  List.iter
    (fun utilization ->
      let scenario = Scenario.prepare ~utilization ~seed () in
      let events = Scenario.events scenario ~n:20 in
      let run policy =
        Metrics.of_run
          (Engine.run ~seed:(seed + 1)
             ~net:(Net_state.copy scenario.Scenario.net)
             ~events policy)
      in
      let fifo = run Policy.Fifo in
      let plmtf = run (Policy.Plmtf { alpha = Policy.default_alpha }) in
      Table.add_floats table
        [
          utilization;
          Workload.reduction_pct ~baseline:fifo.Metrics.avg_ect_s
            plmtf.Metrics.avg_ect_s;
          Workload.reduction_pct ~baseline:fifo.Metrics.tail_ect_s
            plmtf.Metrics.tail_ect_s;
          float_of_int plmtf.Metrics.co_scheduled_events;
          float_of_int plmtf.Metrics.failed_items;
        ])
    utilizations;
  Table.print table

let run_all () =
  alpha_sweep ();
  migration_order ();
  admission_mode ();
  routing_policy ();
  reorder_overhead ();
  co_fit_vs_utilization ()
