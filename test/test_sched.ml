(* nu_sched: execution model, policies, engine, metrics. *)

let of_spec = Test_util.of_spec

let topo4 () = Fat_tree.to_topology (Fat_tree.create ~k:4 ())

let flow ?(id = 0) ?(demand = 50.0) ?(duration = 10.0) ?(arrival = 0.0) src dst
    =
  Flow_record.v ~id ~src ~dst ~size_mbit:(demand *. duration)
    ~duration_s:duration ~arrival_s:arrival

(* A small deterministic workload: [n] events of [m] small flows each. *)
let workload ?(n = 6) ?(m = 5) ?(arrival = fun _ -> 0.0) () =
  let next = ref 0 in
  List.init n (fun i ->
      let flows =
        List.init m (fun j ->
            let id = !next in
            incr next;
            let src = (i + j) mod 16 in
            let dst = (src + 3 + j) mod 16 in
            let dst = if dst = src then (dst + 1) mod 16 else dst in
            flow ~id ~demand:(10.0 +. float_of_int (j * 5)) ~arrival:(arrival i)
              src dst)
      in
      of_spec { Event_gen.event_id = i; arrival_s = arrival i; flows })

let loaded_net () =
  let net = Net_state.create (topo4 ()) in
  let next = ref 1000 in
  for src = 0 to 7 do
    let dst = 15 - src in
    let r = flow ~id:!next ~demand:300.0 src dst in
    incr next;
    match Routing.select net r with
    | Some p -> ( match Net_state.place net r p with Ok () -> () | Error _ -> ())
    | None -> ()
  done;
  net

(* ------------------------------------------------------------------ *)
(* Exec_model                                                          *)

let test_exec_plan_time () =
  Alcotest.(check (float 1e-12)) "0.1 ms per unit" (1e-4 *. 100.0)
    (Exec_model.plan_time ~work_units:100);
  Alcotest.check_raises "negative" (Invalid_argument "Exec_model.plan_time")
    (fun () -> ignore (Exec_model.plan_time ~work_units:(-1)))

(* One plan's serial execution time: 1 ms per programmed hop plus its
   transfer at 500 Mbps. *)
let serial_time (plan : Planner.t) =
  (float_of_int plan.Planner.rule_hops *. 0.001)
  +. (plan.Planner.transfer_mbit /. 500.0)

let test_exec_execution_time () =
  let net = loaded_net () in
  let ev = of_spec { Event_gen.event_id = 0; arrival_s = 0.0; flows = [ flow ~id:0 0 15 ] } in
  let plan = Planner.plan net ev in
  (* One flow: no intra-event speedup applies. *)
  Alcotest.(check (float 1e-9)) "single flow no parallelism"
    (serial_time plan)
    (Exec_model.execution_time plan)

let test_exec_parallelism_cap () =
  let net = loaded_net () in
  let flows = List.init 10 (fun i -> flow ~id:i ~demand:5.0 (i mod 8) ((i + 5) mod 16)) in
  let ev = of_spec { Event_gen.event_id = 0; arrival_s = 0.0; flows } in
  let plan = Planner.plan net ev in
  Alcotest.(check int) "ten flows placed" 0 plan.Planner.failed_count;
  (* Ten satisfied flows: the 8-way parallelism cap applies. *)
  Alcotest.(check (float 1e-9)) "factor 8"
    (serial_time plan /. 8.0)
    (Exec_model.execution_time plan)

(* ------------------------------------------------------------------ *)
(* Policy                                                              *)

let test_policy_names () =
  Alcotest.(check string) "fifo" "fifo" (Policy.name Policy.Fifo);
  Alcotest.(check string) "lmtf" "lmtf(a=4)" (Policy.name (Policy.Lmtf { alpha = 4 }));
  Alcotest.(check string) "plmtf" "p-lmtf(a=2)" (Policy.name (Policy.Plmtf { alpha = 2 }));
  Alcotest.(check string) "reorder" "reorder" (Policy.name Policy.Reorder);
  Alcotest.(check string) "flow rr" "flow-level(rr)"
    (Policy.name (Policy.Flow_level Policy.Round_robin))

let test_policy_validate () =
  Alcotest.(check bool) "valid" true (Policy.validate (Policy.Lmtf { alpha = 1 }) = Ok ());
  Alcotest.(check bool) "invalid" true (Policy.validate (Policy.Plmtf { alpha = 0 }) <> Ok ());
  Alcotest.(check int) "paper alpha" 4 Policy.default_alpha

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)

let run_policy ?(events = workload ()) policy =
  Engine.run ~net:(loaded_net ()) ~events ~seed:5 policy

let test_engine_completes_all () =
  List.iter
    (fun policy ->
      let run = run_policy policy in
      Alcotest.(check int) "all events reported" 6 (Array.length run.Engine.events);
      Array.iter
        (fun (r : Engine.event_result) ->
          Alcotest.(check bool) "completion after start" true
            (r.Engine.completion_s >= r.Engine.start_s);
          Alcotest.(check bool) "start after arrival" true
            (r.Engine.start_s >= r.Engine.arrival_s))
        run.Engine.events)
    [
      Policy.Fifo;
      Policy.Reorder;
      Policy.Lmtf { alpha = 2 };
      Policy.Plmtf { alpha = 2 };
      Policy.Flow_level Policy.Round_robin;
      Policy.Flow_level Policy.By_arrival;
    ]

let test_engine_results_sorted_by_id () =
  let run = run_policy Policy.Fifo in
  Array.iteri
    (fun i (r : Engine.event_result) -> Alcotest.(check int) "sorted" i r.Engine.event_id)
    run.Engine.events

let test_engine_fifo_order () =
  (* Under FIFO with batch arrivals, start times must follow event id
     order (arrival order) strictly, one event at a time. *)
  let run = run_policy Policy.Fifo in
  let starts = Array.map (fun r -> r.Engine.start_s) run.Engine.events in
  Array.iteri
    (fun i s -> if i > 0 then Alcotest.(check bool) "monotone starts" true (s >= starts.(i - 1)))
    starts;
  Alcotest.(check int) "one round per event" 6 run.Engine.rounds

let test_engine_deterministic () =
  let r1 = run_policy (Policy.Lmtf { alpha = 2 }) in
  let r2 = run_policy (Policy.Lmtf { alpha = 2 }) in
  Alcotest.(check bool) "same seed same run" true
    (Array.for_all2
       (fun (a : Engine.event_result) (b : Engine.event_result) ->
         a.Engine.completion_s = b.Engine.completion_s
         && a.Engine.cost_mbit = b.Engine.cost_mbit)
       r1.Engine.events r2.Engine.events)

let test_engine_seed_changes_lmtf () =
  let events = workload ~n:10 () in
  let a = Engine.run ~net:(loaded_net ()) ~events ~seed:1 (Policy.Lmtf { alpha = 2 }) in
  let b = Engine.run ~net:(loaded_net ()) ~events ~seed:2 (Policy.Lmtf { alpha = 2 }) in
  (* Different sampling usually yields different schedules; allow equality
     but require the runs to be well-formed. *)
  Alcotest.(check int) "a complete" 10 (Array.length a.Engine.events);
  Alcotest.(check int) "b complete" 10 (Array.length b.Engine.events)

let test_engine_ect_accessors () =
  let run = run_policy Policy.Fifo in
  Array.iter
    (fun (r : Engine.event_result) ->
      Alcotest.(check (float 1e-9)) "ect" (r.Engine.completion_s -. r.Engine.arrival_s)
        (Engine.ect r);
      Alcotest.(check (float 1e-9)) "queuing" (r.Engine.start_s -. r.Engine.arrival_s)
        (Engine.queuing_delay r))
    run.Engine.events

let test_engine_poisson_arrivals_respected () =
  let events = workload ~arrival:(fun i -> float_of_int i *. 100.0) () in
  let run = Engine.run ~net:(loaded_net ()) ~events ~seed:5 Policy.Fifo in
  Array.iter
    (fun (r : Engine.event_result) ->
      Alcotest.(check bool) "never starts before arrival" true
        (r.Engine.start_s >= r.Engine.arrival_s))
    run.Engine.events;
  (* Long gaps: the service idles, so each event starts shortly after
     its own arrival. *)
  Array.iter
    (fun (r : Engine.event_result) ->
      Alcotest.(check bool) "no queueing with sparse arrivals" true
        (Engine.queuing_delay r < 100.0))
    run.Engine.events

let test_engine_flow_level_slower_on_average () =
  let events = workload ~n:8 ~m:6 () in
  let fifo = Engine.run ~net:(loaded_net ()) ~events ~seed:5 Policy.Fifo in
  let fl =
    Engine.run ~net:(loaded_net ()) ~events ~seed:5
      (Policy.Flow_level Policy.Round_robin)
  in
  let avg (r : Engine.run_result) =
    Descriptive.mean (Array.map Engine.ect r.Engine.events)
  in
  Alcotest.(check bool) "event-level no slower" true (avg fifo <= avg fl)

let test_engine_invalid_policy () =
  Alcotest.check_raises "alpha 0" (Invalid_argument "Engine.run: alpha must be >= 1")
    (fun () ->
      ignore (Engine.run ~net:(loaded_net ()) ~events:(workload ()) (Policy.Lmtf { alpha = 0 })))

let test_engine_plan_accounting () =
  let fifo = run_policy Policy.Fifo in
  let lmtf = run_policy (Policy.Lmtf { alpha = 2 }) in
  Alcotest.(check bool) "lmtf pays more planning" true
    (lmtf.Engine.total_plan_units > fifo.Engine.total_plan_units);
  Alcotest.(check (float 1e-9)) "plan time = units x cost"
    (Exec_model.plan_time ~work_units:fifo.Engine.total_plan_units)
    fifo.Engine.total_plan_time_s

let test_engine_total_cost_matches_events () =
  let run = run_policy (Policy.Lmtf { alpha = 2 }) in
  let sum = Array.fold_left (fun a (r : Engine.event_result) -> a +. r.Engine.cost_mbit) 0.0 run.Engine.events in
  Alcotest.(check (float 1e-6)) "total" sum run.Engine.total_cost_mbit

let test_engine_churn_expires_and_refills () =
  let net = loaded_net () in
  let maker_rng = Prng.create 77 in
  let churn =
    {
      Engine.make_flow =
        (fun ~id ->
          (Yahoo_trace.generate ~first_id:id maker_rng ~host_count:16 ~n:1).(0));
      target_utilization = 0.2;
      max_placements_per_round = 50;
      first_id = 50_000;
    }
  in
  let events = workload ~n:6 () in
  let run = Engine.run ~net ~events ~seed:5 ~churn Policy.Fifo in
  Alcotest.(check int) "completes" 6 (Array.length run.Engine.events);
  (match Net_state.invariants_ok net with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "utilization maintained" true
    (run.Engine.final_fabric_utilization >= 0.0)

let test_engine_plmtf_co_schedules () =
  (* Many small events on a lightly loaded network: P-LMTF must manage
     to co-schedule at least one event. *)
  let events = workload ~n:10 ~m:3 () in
  let run = Engine.run ~net:(loaded_net ()) ~events ~seed:5 (Policy.Plmtf { alpha = 4 }) in
  let co =
    Array.fold_left
      (fun acc (r : Engine.event_result) -> if r.Engine.co_scheduled then acc + 1 else acc)
      0 run.Engine.events
  in
  Alcotest.(check bool) "co-scheduling happens" true (co > 0);
  Alcotest.(check bool) "fewer rounds than events" true (run.Engine.rounds < 10)

let test_engine_flow_level_orders_differ () =
  let events = workload ~n:4 ~m:4 ~arrival:(fun i -> float_of_int i *. 0.001) () in
  let rr = Engine.run ~net:(loaded_net ()) ~events ~seed:5 (Policy.Flow_level Policy.Round_robin) in
  let ba = Engine.run ~net:(loaded_net ()) ~events ~seed:5 (Policy.Flow_level Policy.By_arrival) in
  (* By-arrival groups each event's flows, so the first event finishes
     earlier than under round-robin interleaving. *)
  let first_ect (r : Engine.run_result) = Engine.ect r.Engine.events.(0) in
  Alcotest.(check bool) "grouping helps the first event" true
    (first_ect ba <= first_ect rr)

let test_engine_round_log () =
  let run = run_policy Policy.Fifo in
  Alcotest.(check int) "one entry per round" run.Engine.rounds
    (List.length run.Engine.rounds_log);
  let all_executed =
    List.concat_map (fun ri -> ri.Engine.executed) run.Engine.rounds_log
  in
  Alcotest.(check int) "every event logged once" 6
    (List.length (List.sort_uniq compare all_executed));
  List.iter
    (fun (ri : Engine.round_info) ->
      Alcotest.(check bool) "utilization in range" true
        (ri.Engine.fabric_utilization >= 0.0
        && ri.Engine.fabric_utilization <= 1.0);
      Alcotest.(check bool) "units non-negative" true (ri.Engine.round_units >= 0))
    run.Engine.rounds_log;
  (* Round starts are chronological. *)
  let starts = List.map (fun ri -> ri.Engine.round_start_s) run.Engine.rounds_log in
  Alcotest.(check bool) "chronological" true
    (List.sort compare starts = starts)

let test_engine_round_log_plmtf_batches () =
  let events = workload ~n:10 ~m:3 () in
  let run = Engine.run ~net:(loaded_net ()) ~events ~seed:5 (Policy.Plmtf { alpha = 4 }) in
  let co_total =
    List.fold_left (fun a ri -> a + ri.Engine.co_count) 0 run.Engine.rounds_log
  in
  let co_results =
    Array.fold_left
      (fun a (r : Engine.event_result) -> if r.Engine.co_scheduled then a + 1 else a)
      0 run.Engine.events
  in
  Alcotest.(check int) "log and results agree on co-scheduling" co_results co_total

let test_engine_flow_level_empty_log () =
  let run = run_policy (Policy.Flow_level Policy.Round_robin) in
  Alcotest.(check int) "no event-level rounds" 0 (List.length run.Engine.rounds_log)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let test_metrics_summary () =
  let run = run_policy Policy.Fifo in
  let s = Metrics.of_run run in
  Alcotest.(check int) "events" 6 s.Metrics.n_events;
  Alcotest.(check bool) "avg <= tail" true (s.Metrics.avg_ect_s <= s.Metrics.tail_ect_s);
  Alcotest.(check bool) "p95 <= tail" true (s.Metrics.p95_ect_s <= s.Metrics.tail_ect_s);
  Alcotest.(check bool) "p95 <= p99" true (s.Metrics.p95_ect_s <= s.Metrics.p99_ect_s +. 1e-12);
  Alcotest.(check bool) "p99 <= tail" true (s.Metrics.p99_ect_s <= s.Metrics.tail_ect_s +. 1e-12);
  Alcotest.(check bool) "queuing <= ect" true (s.Metrics.avg_queuing_s <= s.Metrics.avg_ect_s);
  Alcotest.(check string) "policy name" "fifo" s.Metrics.policy_name;
  Alcotest.(check bool) "makespan >= tail" true (s.Metrics.makespan_s >= s.Metrics.tail_ect_s -. 1e-9)

let test_metrics_zero_events () =
  let run = Engine.run ~seed:1 ~net:(loaded_net ()) ~events:[] Policy.Fifo in
  let s = Metrics.of_run run in
  Alcotest.(check int) "no events" 0 s.Metrics.n_events;
  Alcotest.(check (float 0.0)) "avg ect" 0.0 s.Metrics.avg_ect_s;
  Alcotest.(check (float 0.0)) "p95 ect" 0.0 s.Metrics.p95_ect_s;
  Alcotest.(check (float 0.0)) "p99 ect" 0.0 s.Metrics.p99_ect_s;
  Alcotest.(check (float 0.0)) "tail ect" 0.0 s.Metrics.tail_ect_s;
  Alcotest.(check string) "policy name" "fifo" s.Metrics.policy_name;
  (* Summaries stay renderable. *)
  let out = Format.asprintf "%a" Metrics.pp_summary s in
  Alcotest.(check bool) "pp renders" true (String.length out > 0)

let test_metrics_arrays () =
  let run = run_policy Policy.Fifo in
  let ects = Array.map Engine.ect run.Engine.events in
  Alcotest.(check int) "ects" 6 (Array.length ects);
  Alcotest.(check (float 1e-12)) "avg ect is their mean"
    (Descriptive.mean ects) (Metrics.of_run run).Metrics.avg_ect_s;
  Alcotest.(check int) "delays" 6 (Array.length (Metrics.queuing_delays run))

let test_metrics_reduction () =
  Alcotest.(check (float 1e-9)) "reduction" 0.5 (Metrics.reduction ~baseline:10.0 5.0)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec scan i = i + n <= h && (String.sub hay i n = needle || scan (i + 1)) in
  n = 0 || scan 0

(* ------------------------------------------------------------------ *)
(* Multicore probe fan-out: the parallel batch path must be a pure
   wall-clock optimisation — every decision, and therefore the run
   digest, bit-identical to the sequential pass at any domain count. *)

let mc_churn seed =
  let maker_rng = Prng.create (1000 + seed) in
  {
    Engine.make_flow =
      (fun ~id ->
        (Yahoo_trace.generate ~first_id:id maker_rng ~host_count:16 ~n:1).(0));
    target_utilization = 0.3;
    max_placements_per_round = 40;
    first_id = 60_000;
  }

let prop_mc_digest_equal =
  QCheck.Test.make ~name:"probe fan-out preserves the digest" ~count:6
    QCheck.small_int (fun seed ->
      (* Rotate through the probing schedulers: LMTF (bounded batches),
         Reorder (whole-queue batches) and P-LMTF (whose co-attempts
         commit transactions between batches — the committed log's
         commit-time conversion path). *)
      let policy =
        match seed mod 3 with
        | 0 -> Policy.Lmtf { alpha = 4 }
        | 1 -> Policy.Reorder
        | _ -> Policy.Plmtf { alpha = 4 }
      in
      let events = workload ~n:10 ~m:4 () in
      let digest domains =
        Run_digest.of_run
          (Engine.run ~net:(loaded_net ()) ~events ~seed:(seed + 3)
             ~churn:(mc_churn seed) ~co_max_cost_mbit:100.0 ~domains policy)
      in
      digest 1 = digest 4)

let test_mc_digest_with_faults () =
  (* Faults exercise the remaining committed-log op kinds (disable/enable,
     degrade/restore) and the round-guard transactions whose commits
     feed the log; the fan-out must still not move a single bit. *)
  let events = workload ~n:10 ~m:4 ~arrival:(fun i -> float_of_int i *. 0.01) () in
  let fault_edges () =
    match Net_state.fabric_edges (loaded_net ()) with
    | a :: b :: _ -> (a, b)
    | _ -> Alcotest.fail "expected at least two fabric edges"
  in
  let e1, e2 = fault_edges () in
  let schedule =
    [
      { Fault_model.at_s = 0.0; action = Fault_model.Degrade { edge = e1; lost_mbps = 200.0 } };
      { Fault_model.at_s = 0.05; action = Fault_model.Link_down e2 };
      { Fault_model.at_s = 0.2; action = Fault_model.Restore e1 };
      { Fault_model.at_s = 0.3; action = Fault_model.Link_up e2 };
    ]
  in
  let digest domains =
    Run_digest.of_run
      (Engine.run ~net:(loaded_net ()) ~events ~seed:9 ~churn:(mc_churn 17)
         ~injector:(Injector.create schedule) ~domains
         (Policy.Lmtf { alpha = 4 }))
  in
  Alcotest.(check string) "fault run digest independent of domains"
    (digest 1) (digest 4)

(* The pool's mirrors share the interior-path memo read-only, and the
   owner lane probes the live state: after [Probe_pool.create] no probe
   on any lane may miss the memo and enumerate (and write) paths. *)
let test_pool_create_warms_path_memo () =
  let base = topo4 () in
  let calls = Atomic.make 0 in
  let topo =
    Topology.make ~name:base.Topology.name ~graph:base.Topology.graph
      ~hosts:base.Topology.hosts ~switches:base.Topology.switches
      ~interior_paths:(fun ~src ~dst ->
        Atomic.incr calls;
        base.Topology.interior_paths ~src ~dst)
      ~diameter:base.Topology.diameter
  in
  let net = Net_state.create topo in
  let pool = Probe_pool.create ~domains:2 ~net in
  Fun.protect
    ~finally:(fun () -> Probe_pool.shutdown pool)
    (fun () ->
      let pairs =
        Array.of_list
          (List.concat_map
             (fun src ->
               List.filter_map
                 (fun dst -> if src <> dst then Some (src, dst) else None)
                 (List.init 16 Fun.id))
             (List.init 16 Fun.id))
      in
      let probe lane i (src, dst) =
        ignore
          (Planner.probe lane
             (of_spec
                {
                  Event_gen.event_id = i;
                  arrival_s = 0.0;
                  flows = [ flow ~id:i ~demand:5.0 src dst ];
                }))
      in
      Atomic.set calls 0;
      Array.iteri (probe net) pairs;
      Alcotest.(check int) "owner lane enumerates nothing" 0 (Atomic.get calls);
      ignore
        (Probe_pool.map pool
           ~f:(fun lane (i, pair) -> probe lane i pair)
           (Array.mapi (fun i pair -> (i, pair)) pairs));
      Alcotest.(check int) "mirror lanes enumerate nothing" 0
        (Atomic.get calls))

(* Per-edge versions, which the wave's stale-plan check reads: a
   degrade→restore cycle bumps exactly the touched edge's version, so a
   probe that read it is stale afterwards while a probe of a disjoint
   read set stays current. *)
let test_edge_version_exact_invalidation () =
  let net = loaded_net () in
  let mk i src dst =
    of_spec
      {
        Event_gen.event_id = i;
        arrival_s = 0.0;
        flows = [ flow ~id:(200 + i) ~demand:20.0 src dst ];
      }
  in
  let ev_a = mk 0 0 1 and ev_b = mk 1 8 9 in
  let pr_a = Planner.probe net ev_a in
  let pr_b = Planner.probe net ev_b in
  let versions (pr : Planner.probe) =
    Array.map (Net_state.edge_version net) pr.Planner.probe_touched
  in
  let va = versions pr_a and vb = versions pr_b in
  let b_touched = Array.to_list pr_b.Planner.probe_touched in
  let e =
    match
      List.find_opt
        (fun e -> not (List.mem e b_touched))
        (Array.to_list pr_a.Planner.probe_touched)
    with
    | Some e -> e
    | None -> Alcotest.fail "expected disjoint probe read sets"
  in
  let v0 = Net_state.edge_version net e in
  Net_state.degrade_edge net e ~lost_mbps:5.0;
  Net_state.restore_edge_capacity net e;
  Alcotest.(check bool) "cycle dirties the edge" true
    (Net_state.edge_version net e > v0);
  Alcotest.(check bool) "A stale" false (versions pr_a = va);
  Alcotest.(check bool) "B untouched, still current" true (versions pr_b = vb);
  (* Restore is exact, so a fresh probe of A estimates what the first
     one did. *)
  Alcotest.(check bool) "A re-probes to the same estimate" true
    ((Planner.probe net ev_a).Planner.probe_est = pr_a.Planner.probe_est)

(* ------------------------------------------------------------------ *)
(* Golden digests of the stepping paths. The expected strings were
   recorded when [Stepper.step] and [Stepper.step_group] were still two
   round loops; they pin every decision — candidate draw, probe, replay,
   co-scheduling, abort/retry/degrade, stale-winner re-plan, escalation
   — so the one-round kernel must reproduce them bit for bit. *)

let golden_events ~base ~n =
  List.init n (fun i ->
      let arrival = float_of_int i *. 0.01 in
      let flows =
        List.init 4 (fun j ->
            let src = ((i * 3) + j + base) mod 16 in
            let dst = (src + 5 + j) mod 16 in
            flow
              ~id:(((base + i) * 10) + j)
              ~demand:(15.0 +. float_of_int (j * 10))
              ~arrival src dst)
      in
      of_spec { Event_gen.event_id = base + i; arrival_s = arrival; flows })

(* [guard_only]: one applied degrade and one never-due fault, so every
   round runs (and commits) under the fault-guard transaction. *)
let golden_schedule ?(guard_only = false) net =
  match Net_state.fabric_edges net with
  | e1 :: _ :: e3 :: _ when guard_only ->
      [
        { Fault_model.at_s = 0.0; action = Fault_model.Degrade { edge = e1; lost_mbps = 50.0 } };
        { Fault_model.at_s = 1e6; action = Fault_model.Link_down e3 };
      ]
  | e1 :: e2 :: e3 :: _ ->
      [
        { Fault_model.at_s = 0.0; action = Fault_model.Degrade { edge = e1; lost_mbps = 200.0 } };
        { Fault_model.at_s = 0.03; action = Fault_model.Link_down e2 };
        { Fault_model.at_s = 0.08; action = Fault_model.Link_down e3 };
        { Fault_model.at_s = 0.15; action = Fault_model.Restore e1 };
        { Fault_model.at_s = 0.2; action = Fault_model.Link_up e2 };
        { Fault_model.at_s = 0.3; action = Fault_model.Link_up e3 };
        (* Never due: keeps every later round under the fault guard. *)
        { Fault_model.at_s = 1e6; action = Fault_model.Link_down e3 };
      ]
  | _ -> Alcotest.fail "expected at least three fabric edges"

let golden_policies =
  [
    ("fifo", Policy.Fifo);
    ("reorder", Policy.Reorder);
    ("lmtf", Policy.Lmtf { alpha = 2 });
    ("plmtf", Policy.Plmtf { alpha = 2 });
  ]

let golden_stepper policy variant =
  let net = loaded_net () in
  let churn =
    if variant = "churn" || variant = "churn+faults" then Some (mc_churn 5)
    else None
  in
  let injector =
    match variant with
    | "faults" | "churn+faults" -> Some (Injector.create (golden_schedule net))
    | "guard" -> Some (Injector.create (golden_schedule ~guard_only:true net))
    | _ -> None
  in
  let st =
    Engine.Stepper.create ~net ~seed:13 ?churn ?injector
      ~co_max_cost_mbit:100.0
      ~events:(golden_events ~base:0 ~n:12)
      policy
  in
  while Engine.Stepper.step st <> `Idle do
    ()
  done;
  let d = Run_digest.of_run (Engine.Stepper.result st) in
  match injector with
  | Some inj -> Run_digest.combine [ d; Recovery.digest (Injector.recovery inj) ]
  | None -> d

(* Two steppers over one net: stepper 0 owns the background churn,
   both draw from their own PRNG, and the optional hook claims a
   deterministic subset of winners without executing them — rolling
   back the engine's open transaction after a live re-plan — and logs
   each claim with the migration set it carried. *)
let golden_group policy ~escalate =
  let net = loaded_net () in
  let a =
    Engine.Stepper.create ~net ~seed:21 ~churn:(mc_churn 3)
      ~co_max_cost_mbit:100.0
      ~events:(golden_events ~base:0 ~n:10)
      policy
  and b =
    Engine.Stepper.create ~net ~seed:22 ~init_expiry:false
      ~co_max_cost_mbit:100.0
      ~events:(golden_events ~base:200 ~n:10)
      policy
  in
  let sts = [| a; b |] in
  let escs = Buffer.create 64 in
  let escalate =
    if escalate then
      Some
        (fun ~shard ~(event : Event.t) ~plan ~txn_open ~attempt:_ ->
          let claim = (event.Event.id + shard) mod 4 = 0 in
          if claim then begin
            if txn_open then Net_state.rollback net;
            Buffer.add_string escs
              (Printf.sprintf "%d:%d:%s;" shard event.Event.id
                 (String.concat ","
                    (List.map string_of_int (Shard_coord.moved_flow_ids plan))))
          end;
          claim)
    else None
  in
  let rec loop () =
    match Engine.Stepper.step_group ?escalate sts with
    | `Idle -> ()
    | `Stepped ->
        let now =
          Array.fold_left
            (fun m st -> Float.max m (Engine.Stepper.now_s st))
            0.0 sts
        in
        Array.iter (fun st -> Engine.Stepper.advance_clock st ~to_s:now) sts;
        loop ()
  in
  loop ();
  Run_digest.combine
    [
      Run_digest.of_run (Engine.Stepper.result a);
      Run_digest.of_run (Engine.Stepper.result b);
      Buffer.contents escs;
    ]

let golden_stepper_expected =
  [
    ("fifo/plain", "fb19d11adb9187af");
    ("fifo/churn", "6da88e681a988999");
    ("fifo/faults", "247b6fc2df6e10bf");
    ("fifo/churn+faults", "c3002720ac40e609");
    ("fifo/guard", "52181a71cd1176ca");
    ("reorder/plain", "450f9e00f18f9c3f");
    ("reorder/churn", "5027932294f9da9d");
    ("reorder/faults", "896e3e727b726706");
    ("reorder/churn+faults", "f3cb1004053405ba");
    ("reorder/guard", "906242cfea39e7f6");
    ("lmtf/plain", "c99b19b8ba82a7c8");
    ("lmtf/churn", "07323cd88d643478");
    ("lmtf/faults", "896e3e727b726706");
    ("lmtf/churn+faults", "f3cb1004053405ba");
    ("lmtf/guard", "5c75b6dde0fa863c");
    ("plmtf/plain", "897f1f1bfaf2ae62");
    ("plmtf/churn", "75dd06cd9f3b9a59");
    ("plmtf/faults", "557abbf477848f77");
    ("plmtf/churn+faults", "0b7a74c6f199886d");
    ("plmtf/guard", "c657db54de604e8a");
  ]

let golden_group_expected =
  [
    ("lmtf/plain", "037c274a5b2c53d5");
    ("lmtf/escalate", "71106572f7f516d8");
    ("plmtf/plain", "631cf2fc069f13e1");
    ("plmtf/escalate", "1d00830ac324b69f");
  ]

let test_golden_stepper () =
  List.iter
    (fun (name, want) ->
      match String.split_on_char '/' name with
      | [ p; variant ] ->
          Alcotest.(check string) name want
            (golden_stepper (List.assoc p golden_policies) variant)
      | _ -> assert false)
    golden_stepper_expected

let test_golden_group () =
  List.iter
    (fun (name, want) ->
      match String.split_on_char '/' name with
      | [ p; mode ] ->
          Alcotest.(check string) name want
            (golden_group (List.assoc p golden_policies)
               ~escalate:(mode = "escalate"))
      | _ -> assert false)
    golden_group_expected

(* Faults in waves: two steppers share one net and one injector. Each
   commit runs under its own fault guard, so a fault landing mid-round
   aborts that stepper's round alone, and later commits of the wave see
   the struck state through their stale-plan check. *)
let faulted_wave_run () =
  let net = loaded_net () in
  let inj = Injector.create (golden_schedule net) in
  let mk ~seed ~base =
    Engine.Stepper.create ~net ~seed ~injector:inj ~co_max_cost_mbit:100.0
      ~events:(golden_events ~base ~n:10)
      (Policy.Plmtf { alpha = 2 })
  in
  let a = mk ~seed:21 ~base:0 and b = mk ~seed:22 ~base:200 in
  let dirty_waves = ref 0 in
  while Engine.Stepper.step_group [| a; b |] <> `Idle do
    if Invariant.check net <> [] then incr dirty_waves
  done;
  let recovery = Injector.recovery inj in
  ( Run_digest.combine
      [
        Run_digest.of_run (Engine.Stepper.result a);
        Run_digest.of_run (Engine.Stepper.result b);
      ],
    Recovery.digest recovery,
    Recovery.stats recovery,
    !dirty_waves )

let test_faults_in_waves () =
  let digest, recovery, stats, dirty = faulted_wave_run () in
  let digest', recovery', _, _ = faulted_wave_run () in
  Alcotest.(check string) "run digest reproduces" digest digest';
  Alcotest.(check string) "recovery digest reproduces" recovery recovery';
  Alcotest.(check int) "invariants clean after every wave" 0 dirty;
  Alcotest.(check bool) "a round aborted" true (stats.Recovery.aborts > 0);
  Alcotest.(check bool) "an aborted event retried" true
    (stats.Recovery.retries > 0)

let test_metrics_comparison_renders () =
  let fifo = Metrics.of_run (run_policy Policy.Fifo) in
  let lmtf = Metrics.of_run (run_policy (Policy.Lmtf { alpha = 2 })) in
  let out = Format.asprintf "%a" (fun ppf -> Metrics.pp_comparison ppf ~baseline:fifo) [ lmtf ] in
  Alcotest.(check bool) "mentions policy" true (contains ~needle:"lmtf" out)

let suite =
  [
    ("exec plan time", `Quick, test_exec_plan_time);
    ("exec execution time", `Quick, test_exec_execution_time);
    ("exec parallelism", `Quick, test_exec_parallelism_cap);
    ("policy names", `Quick, test_policy_names);
    ("policy validate", `Quick, test_policy_validate);
    ("engine completes all", `Quick, test_engine_completes_all);
    ("engine sorted results", `Quick, test_engine_results_sorted_by_id);
    ("engine fifo order", `Quick, test_engine_fifo_order);
    ("engine deterministic", `Quick, test_engine_deterministic);
    ("engine seed variation", `Quick, test_engine_seed_changes_lmtf);
    ("engine ect accessors", `Quick, test_engine_ect_accessors);
    ("engine sparse arrivals", `Quick, test_engine_poisson_arrivals_respected);
    ("engine flow-level slower", `Quick, test_engine_flow_level_slower_on_average);
    ("engine invalid policy", `Quick, test_engine_invalid_policy);
    ("engine plan accounting", `Quick, test_engine_plan_accounting);
    ("engine total cost", `Quick, test_engine_total_cost_matches_events);
    ("engine churn", `Quick, test_engine_churn_expires_and_refills);
    ("engine plmtf co-schedules", `Quick, test_engine_plmtf_co_schedules);
    ("edge version exact invalidation", `Quick, test_edge_version_exact_invalidation);
    ("probe pool warms the path memo", `Quick, test_pool_create_warms_path_memo);
    QCheck_alcotest.to_alcotest prop_mc_digest_equal;
    ("mc digest with faults", `Quick, test_mc_digest_with_faults);
    ("golden stepper digests", `Quick, test_golden_stepper);
    ("golden step_group digests", `Quick, test_golden_group);
    ("faults in step_group waves", `Quick, test_faults_in_waves);
    ("engine flow order variants", `Quick, test_engine_flow_level_orders_differ);
    ("engine round log", `Quick, test_engine_round_log);
    ("engine round log plmtf", `Quick, test_engine_round_log_plmtf_batches);
    ("engine flow-level log", `Quick, test_engine_flow_level_empty_log);
    ("metrics summary", `Quick, test_metrics_summary);
    ("metrics zero events", `Quick, test_metrics_zero_events);
    ("metrics arrays", `Quick, test_metrics_arrays);
    ("metrics reduction", `Quick, test_metrics_reduction);
    ("metrics comparison", `Quick, test_metrics_comparison_renders);
  ]
