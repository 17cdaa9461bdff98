(* Benchmark harness.

   Part 1 - Bechamel micro-benchmarks: one Test.make per paper figure
   (a reduced kernel of the experiment each figure runs) plus the hot
   substrate kernels (planning, migration clearing, state copy, ECMP
   enumeration). Reported as ns/run via OLS on the monotonic clock.

   Part 2 - the full figure series: every table the paper's evaluation
   reports, regenerated at the default experiment sizes (the same output
   `experiments all` produces). Shapes, not absolute times, are the
   reproduction target; see EXPERIMENTS.md. *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Shared fixtures, built once. *)

let scenario = lazy (Core.Scenario.prepare ~utilization:0.70 ~seed:42 ())

let small_events n =
  let s = Lazy.force scenario in
  Core.Scenario.events ~shape:(Core.Event_gen.Range (8, 15)) s ~n

let bench_event = lazy (List.hd (small_events 1))
let bench_queue = lazy (small_events 8)

let run_policy policy =
  let s = Lazy.force scenario in
  let events = Lazy.force bench_queue in
  ignore
    (Core.Engine.run ~seed:3
       ~net:(Core.Net_state.copy s.Core.Scenario.net)
       ~events policy)

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks.

   Fixtures are allocated through Test.make_with_resource so the
   scenario lazy is forced when a benchmark starts, not while this list
   is being constructed at module load (which would bill fixture setup
   to startup), and so each test gets its own PRNG rather than sharing
   stream state with its neighbours. *)

let substrate_tests () =
  [
    Test.make_with_resource ~name:"prng-bits64" Test.uniq
      ~allocate:(fun () -> Core.Prng.create 99)
      ~free:ignore
      (Staged.stage (fun rng -> ignore (Core.Prng.bits64 rng)));
    Test.make_with_resource ~name:"dist-bounded-pareto" Test.uniq
      ~allocate:(fun () -> Core.Prng.create 100)
      ~free:ignore
      (Staged.stage (fun rng ->
           ignore (Core.Dist.bounded_pareto rng ~shape:1.1 ~lo:1.0 ~hi:400.0)));
    Test.make_with_resource ~name:"fat-tree-interior-interpod" Test.uniq
      ~allocate:(fun () ->
        let ft = (Lazy.force scenario).Core.Scenario.fat_tree in
        ( (Lazy.force scenario).Core.Scenario.topology,
          Core.Fat_tree.edge ft ~pod:0 0,
          Core.Fat_tree.edge ft ~pod:(Core.Fat_tree.k ft - 1) 0 ))
      ~free:ignore
      (Staged.stage (fun (topo, src, dst) ->
           ignore (topo.Core.Topology.interior_paths ~src ~dst)));
    Test.make_with_resource ~name:"net-state-copy" Test.uniq
      ~allocate:(fun () -> (Lazy.force scenario).Core.Scenario.net)
      ~free:ignore
      (Staged.stage (fun net -> ignore (Core.Net_state.copy net)));
    Test.make_with_resource ~name:"planner-probe" Test.uniq
      ~allocate:(fun () ->
        ((Lazy.force scenario).Core.Scenario.net, Lazy.force bench_event))
      ~free:ignore
      (Staged.stage (fun (net, ev) -> ignore (Core.Planner.probe net ev)));
    Test.make_with_resource ~name:"planner-plan-rollback" Test.uniq
      ~allocate:(fun () ->
        ((Lazy.force scenario).Core.Scenario.net, Lazy.force bench_event))
      ~free:ignore
      (Staged.stage (fun (net, ev) ->
           Core.Net_state.begin_txn net;
           ignore (Core.Planner.plan net ev);
           Core.Net_state.rollback net));
  ]

let figure_tests () =
  [
    Test.make ~name:"fig1-probe-50-flows"
      (Staged.stage (fun () ->
           let s = Lazy.force scenario in
           let rng = Core.Prng.create 1 in
           for i = 0 to 49 do
             let r =
               (Core.Yahoo_trace.generate ~first_id:(900_000 + i) rng
                  ~host_count:128 ~n:1).(0)
             in
             let d = Core.Flow_record.demand_mbps r in
             let net = s.Core.Scenario.net in
             let c = Core.Net_state.candidates net r in
             ignore
               (match Core.Routing.desired r c with
               | -1 -> false
               | i -> Core.Net_state.candidate_feasible net c i ~demand:d)
           done));
    Test.make ~name:"fig2-slot-model"
      (Staged.stage (fun () ->
           ignore (Nu_expt.Fig2.flow_level ~flows_per_event:[ 4; 4; 4 ]);
           ignore (Nu_expt.Fig2.event_level ~flows_per_event:[ 4; 4; 4 ])));
    Test.make ~name:"fig3-slot-model"
      (Staged.stage (fun () ->
           ignore (Nu_expt.Fig3.completions Nu_expt.Fig3.paper_events)));
    Test.make ~name:"fig4-event-level-run"
      (Staged.stage (fun () -> run_policy Core.Policy.Fifo));
    Test.make ~name:"fig5-flow-level-run"
      (Staged.stage (fun () ->
           run_policy (Core.Policy.Flow_level Core.Policy.Round_robin)));
    Test.make ~name:"fig6-lmtf-run"
      (Staged.stage (fun () -> run_policy (Core.Policy.Lmtf { alpha = 4 })));
    Test.make ~name:"fig7-plmtf-run"
      (Staged.stage (fun () -> run_policy (Core.Policy.Plmtf { alpha = 4 })));
    Test.make ~name:"fig8-queuing-metrics"
      (Staged.stage (fun () ->
           let s = Lazy.force scenario in
           let run =
             Core.Engine.run ~seed:3
               ~net:(Core.Net_state.copy s.Core.Scenario.net)
               ~events:(Lazy.force bench_queue)
               (Core.Policy.Plmtf { alpha = 4 })
           in
           ignore (Core.Metrics.of_run run)));
    Test.make ~name:"fig9-per-event-delays"
      (Staged.stage (fun () ->
           let s = Lazy.force scenario in
           let run =
             Core.Engine.run ~seed:3
               ~net:(Core.Net_state.copy s.Core.Scenario.net)
               ~events:(Lazy.force bench_queue)
               (Core.Policy.Lmtf { alpha = 4 })
           in
           ignore (Core.Metrics.queuing_delays run)));
  ]

let run_benchmarks tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~stabilize:false
      ~kde:(Some 10) ()
  in
  let counters_before = Core.Obs.Counters.snapshot () in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"bench" tests) in
  let counters_after = Core.Obs.Counters.snapshot () in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name est acc -> (name, est) :: acc) results [] in
  let rows = List.sort compare rows in
  Printf.printf "%-44s %16s %10s\n" "benchmark" "ns/run" "r^2";
  List.iter
    (fun (name, est) ->
      let ns =
        match Analyze.OLS.estimates est with
        | Some (v :: _) -> Printf.sprintf "%.0f" v
        | _ -> "-"
      in
      let r2 =
        match Analyze.OLS.r_square est with
        | Some v -> Printf.sprintf "%.3f" v
        | None -> "-"
      in
      Printf.printf "%-44s %16s %10s\n" name ns r2)
    rows;
  (* Work-unit accounting for the whole benchmark pass: how many planner
     probes, migrations, state copies etc. the measured iterations
     consumed, next to their ns/run. *)
  Format.printf "%a@."
    Core.Obs.Counters.pp_table
    (Core.Obs.Counters.diff ~before:counters_before ~after:counters_after)

let () =
  print_endline "=== Part 1: Bechamel micro-benchmarks (ns/run) ===";
  run_benchmarks (substrate_tests () @ figure_tests ());
  print_newline ();
  print_endline "=== Part 2: full figure regeneration (paper evaluation) ===";
  Nu_expt.Fig2.run ();
  Nu_expt.Fig3.run ();
  Nu_expt.Fig1.run ();
  Nu_expt.Fig4.run ();
  Nu_expt.Fig5.run ();
  let sweep = Nu_expt.Fig6.sweep () in
  Nu_expt.Fig6.print (Nu_expt.Fig6.of_sweep sweep);
  Nu_expt.Fig7.run ();
  Nu_expt.Fig8.print (Nu_expt.Fig8.of_sweep sweep);
  Nu_expt.Fig9.run ();
  print_endline "=== Part 3: design-choice ablations ===";
  Nu_expt.Ablation.run_all ()
