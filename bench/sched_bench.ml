(* Scheduler-level benchmark: events-per-second and probes-per-round on
   the k=8 Fat-Tree under churn, for the sampling policies whose hot
   path is Planner probing (LMTF and Reorder), plus the fault-injection
   scenarios: an empty fault schedule (whose digest must equal the
   fault-free run — the fault hooks are required to cost nothing when
   idle) and a seeded fault-churn run exercising abort/retry/degrade.

   Emits machine-readable JSON (BENCH_PR6.json) so the perf trajectory
   of the planning hot path is tracked per-PR:

     dune exec bench/sched_bench.exe -- --out BENCH_PR6.json
     dune exec bench/sched_bench.exe -- --quick --out BENCH_PR6.json

   [--baseline FILE] merges a previously recorded run (e.g. one taken on
   the pre-optimisation tree) under the "baseline" key and reports the
   planning-wall speedup against it.

   Besides timing, every scenario digests its run_result (event ids,
   ECT-defining timestamps, costs, probe counts, rounds) into a stable
   FNV-1a hash ([Run_digest.of_run]). Identical seeds must produce
   identical digests across optimisation work — the planner/scheduler
   fast paths are required to be bit-identical rewrites, not
   approximations. *)

let quick = ref false
let out_file = ref ""
let baseline_file = ref ""
let seed = ref 42
let only : string list ref = ref []
let domains = ref 1

let args =
  [
    ("--quick", Arg.Set quick, "reduced event count (CI smoke mode)");
    ("--out", Arg.Set_string out_file, "FILE write JSON results to FILE");
    ( "--baseline",
      Arg.Set_string baseline_file,
      "FILE merge a prior run's JSON as the comparison baseline" );
    ("--seed", Arg.Set_int seed, "N scenario seed (default 42)");
    ( "--scenario",
      Arg.String (fun s -> only := s :: !only),
      "NAME run only the named scenario (repeatable); digest cross-checks \
       apply only when both sides ran" );
    ( "--domains",
      Arg.Set_int domains,
      "N probe fan-out width for the *-mc scenarios (default 1 skips them)" );
  ]

let usage =
  "sched_bench [--quick] [--out FILE] [--baseline FILE] [--seed N] [--scenario \
   NAME]... [--domains N]"

(* ------------------------------------------------------------------ *)
(* One measured scenario.                                              *)

type measurement = {
  m_name : string;
  m_events : int;
  m_rounds : int;
  m_plan_units : int;
  m_planning_wall_s : float;
  m_run_wall_s : float;
  m_events_per_s : float;
  m_probes_per_round : float;
  m_total_cost_mbit : float;
  m_digest : string;
  m_recovery_digest : string option;
  m_counters : Core.Obs.Counters.snapshot;
}

let now_s () = Int64.to_float (Core.Obs.Trace.now_ns ()) *. 1e-9

let measure ~name ~policy ~n_events ?(faults = `Off) ?(obs = false)
    ?(stepper = false) ?(telemetry = `Off) ?(wal = false) ?(domains = 1)
    ?(shards = 0) ?(churn_big = false) () =
  (* A fresh scenario per measurement: the run mutates its network. *)
  let s = Core.Scenario.prepare ~k:8 ~utilization:0.70 ~seed:!seed () in
  let events = Core.Scenario.events s ~n:n_events in
  let churn =
    if churn_big then
      (* The million-flow churn cap scenario: a hotter refill setpoint
         and a deeper per-round refill, flow ids drawn from the churn
         window above 10M. The run loop hard-caps churn placements at
         one million. *)
      { (Core.Scenario.churn ~target:0.85 s) with
        Core.Engine.max_placements_per_round = 2000 }
    else Core.Scenario.churn ~target:0.70 s
  in
  (* [obs] turns the whole observability stack on for the run — memory
     trace sink, histogram registry, per-round series — to measure its
     overhead and prove it does not perturb a single decision. *)
  let series =
    if obs then begin
      let sink, _ = Core.Obs.Trace.memory () in
      Core.Obs.Trace.install sink;
      Core.Obs.Histogram.Registry.reset ();
      Core.Obs.Histogram.Registry.enable ();
      Some (Core.Engine.make_series ())
    end
    else None
  in
  let injector =
    match faults with
    | `Off -> None
    | `Empty -> Some (Core.Injector.create [])
    | `Seeded ->
        let config =
          {
            Core.Fault_model.default_config with
            Core.Fault_model.rate_per_s = 0.5;
            horizon_s = 20.0;
            repair_s = 4.0;
          }
        in
        Some
          (Core.Injector.create
             (Core.Fault_model.generate ~config ~seed:(!seed + 9)
                s.Core.Scenario.topology))
  in
  let before = Core.Obs.Counters.snapshot () in
  let t0 = now_s () in
  (* Sharded fabric digest override: the shard scenarios digest the
     combined fabric decision stream (per-shard digests folded with the
     coordinator journal digest), which for one shard collapses to the
     single-controller digest. *)
  let fabric_digest = ref None in
  let run =
    if shards > 0 then begin
      (* The sharded serving ingest path, raw: N wave-synchronised
         steppers over the shared net, the workload routed by the
         deterministic partition map, cross-shard migration sets
         escalated to the global coordinator. Shard 0 owns the
         background churn; siblings share the flow generator with a
         zero refill setpoint so placements happen exactly once. A
         wave fans out through its first stepper's pool: shard 0 gets
         one domain per shard. *)
      assert (injector = None);
      let host_count = s.Core.Scenario.host_count in
      let part =
        Core.Shard_partition.create ~host_count ~regions:8 ~shards
      in
      let steppers =
        Array.init shards (fun k ->
            let churn_k =
              if k = 0 then churn
              else { churn with Core.Engine.target_utilization = 0.0 }
            in
            Core.Engine.Stepper.create
              ~seed:(if k = 0 then 3 else 3 + (k * 7919))
              ~domains:(if k = 0 then shards else 1)
              ~churn:churn_k ~init_expiry:(k = 0) ?series
              ~net:s.Core.Scenario.net policy)
      in
      List.iter
        (fun ev ->
          Core.Engine.Stepper.submit
            steppers.(Core.Shard_partition.home_of_event part ev)
            [ ev ])
        events;
      let coordinator =
        Core.Shard_coord.create ~seed:(3 lxor 0x5eed)
          Core.Shard_coord.default_config
      in
      let shard_of_flow fid =
        match Core.Net_state.flow s.Core.Scenario.net fid with
        | Some placed ->
            Some
              (Core.Shard_partition.shard_of_region part
                 (Core.Shard_partition.region_of_host part
                    placed.Core.Net_state.record.Core.Flow_record.src))
        | None -> None
      in
      let placements0 = Core.Obs.Counters.get Core.Obs.Counters.Churn_placements in
      let on_commit ~home ~result ~degraded:_ plan =
        Core.Engine.Stepper.register_departures steppers.(home)
          ~completion:result.Core.Engine.completion_s plan
      in
      let escalate =
        if shards = 1 then None
        else
          Some
            (fun ~shard ~event ~plan ~txn_open ~attempt ->
              let moved = Core.Shard_coord.moved_flow_ids plan in
              let crosses =
                List.exists
                  (fun fid ->
                    match shard_of_flow fid with
                    | Some home -> home <> shard
                    | None -> false)
                  moved
              in
              if crosses then begin
                Core.Shard_coord.commit_escalated coordinator
                  ~net:s.Core.Scenario.net ~tick:0 ~now_floor_s:0.0 ~home:shard
                  ~event ~moved ~shard_of_flow
                  ~backlogs:(Array.map Core.Engine.Stepper.backlog steppers)
                  ~txn_open ~attempt ~on_commit;
                true
              end
              else false)
      in
      let wave = ref 0 in
      let continue_ = ref true in
      while !continue_ do
        let stepped =
          Core.Engine.Stepper.step_group ?escalate steppers = `Stepped
        in
        Core.Shard_coord.attempt_due coordinator ~net:s.Core.Scenario.net
          ~tick:!wave ~now_floor_s:0.0 ~shard_of_flow
          ~backlogs:(Array.map Core.Engine.Stepper.backlog steppers)
          ~on_commit;
        (* Wave barrier: every shard reads the fabric-wide clock. *)
        let now_max =
          Array.fold_left
            (fun acc st -> Float.max acc (Core.Engine.Stepper.now_s st))
            (Core.Shard_coord.now_s coordinator)
            steppers
        in
        Array.iter
          (fun st -> Core.Engine.Stepper.advance_clock st ~to_s:now_max)
          steppers;
        incr wave;
        let churned =
          Core.Obs.Counters.get Core.Obs.Counters.Churn_placements - placements0
        in
        continue_ :=
          (stepped || Core.Shard_coord.pending_count coordinator > 0)
          && churned < 1_000_000
      done;
      let runs = Array.map Core.Engine.Stepper.result steppers in
      Array.iter Core.Engine.Stepper.close steppers;
      let shard_digests =
        Array.to_list (Array.map Core.Run_digest.of_run runs)
      in
      fabric_digest :=
        Some
          (Core.Run_digest.combine
             (if Core.Shard_coord.entries coordinator > 0 then
                shard_digests @ [ Core.Shard_coord.digest coordinator ]
              else shard_digests));
      let coord_events = Array.of_list (Core.Shard_coord.results coordinator) in
      let sum f = Array.fold_left (fun acc r -> acc + f r) 0 runs in
      let sumf f = Array.fold_left (fun acc r -> acc +. f r) 0.0 runs in
      {
        runs.(0) with
        Core.Engine.events =
          Array.concat
            (Array.to_list (Array.map (fun r -> r.Core.Engine.events) runs)
            @ [ coord_events ]);
        rounds = sum (fun r -> r.Core.Engine.rounds);
        rounds_log =
          List.concat
            (Array.to_list (Array.map (fun r -> r.Core.Engine.rounds_log) runs));
        total_plan_units =
          sum (fun r -> r.Core.Engine.total_plan_units)
          + Core.Shard_coord.units coordinator;
        total_plan_time_s = sumf (fun r -> r.Core.Engine.total_plan_time_s);
        total_cost_mbit = sumf (fun r -> r.Core.Engine.total_cost_mbit);
        makespan_s =
          Array.fold_left
            (fun acc r -> Float.max acc r.Core.Engine.makespan_s)
            (Core.Shard_coord.now_s coordinator)
            runs;
        planning_wall_s = sumf (fun r -> r.Core.Engine.planning_wall_s);
      }
    end
    else if stepper then begin
      (* The serving ingest path: the same workload submitted through the
         incremental stepper and stepped round by round. Required to be a
         bit-identical (and near-free) rewrite of the batch loop. With
         [telemetry], a full Telemetry observer (lifecycle + fairness +
         SLO) is attached to the stepper — recording every round and
         completion while the digest must not move. *)
      let tel =
        match telemetry with
        | `Off -> None
        | `On ->
            Some (Core.Serve_telemetry.create Core.Serve_telemetry.default_config)
        | `Watch ->
            (* In-memory watchdog (no journal dir): detectors, health
               machines and alert ring run over every tick while the
               digest must not move. *)
            Some
              (Core.Serve_telemetry.create
                 {
                   Core.Serve_telemetry.default_config with
                   Core.Serve_telemetry.watch = Some Core.Obs.Watch.default_config;
                 })
      in
      let observer = Option.map Core.Serve_telemetry.observer tel in
      let st =
        Core.Engine.Stepper.create ~seed:3 ~domains ~churn ?injector ?series
          ?observer ~net:s.Core.Scenario.net policy
      in
      (* [wal] journals the whole workload through the CRC32-framed
         write-ahead log alongside the run — measuring the durable
         store's overhead on the ingest path while the digest must not
         move — then reads it back and requires zero corrupt frames. *)
      let journal =
        if wal then begin
          let path = Filename.temp_file "sched_bench_wal" ".wal" in
          let w = Core.Journal.open_writer path in
          List.iteri
            (fun i ev ->
              Core.Journal.write w
                (Core.Journal.Arrive
                   { tick = i; request = Core.Serve_request.v ~tenant:"bench" ev }))
            events;
          List.iteri (fun i _ -> Core.Journal.write w (Core.Journal.Tick_done i)) events;
          Core.Obs.Store.flush w;
          Some (path, w)
        end
        else None
      in
      Core.Engine.Stepper.submit st events;
      (match (telemetry, tel) with
      | `Watch, Some tel ->
          (* Drive the controller-side tick hooks around bounded step
             batches so the watchdog sees a tick stream. Grouping steps
             into ticks changes nothing: the stepper is stepped to idle
             either way, and every hook is recording-only. *)
          let tick = ref 0 in
          let idle = ref false in
          while not !idle do
            Core.Serve_telemetry.on_tick_start tel ~tick:!tick
              ~now_s:(float_of_int !tick *. 0.05);
            let steps = ref 0 in
            while (not !idle) && !steps < 4 do
              if Core.Engine.Stepper.step st = `Idle then idle := true;
              incr steps
            done;
            Core.Serve_telemetry.on_tick_end tel ~tick:!tick ~queue:0
              ~backlog:(Core.Engine.Stepper.backlog st);
            incr tick
          done;
          Core.Serve_telemetry.on_retire tel
      | _ -> while Core.Engine.Stepper.step st <> `Idle do () done);
      (match journal with
      | None -> ()
      | Some (path, w) ->
          Core.Obs.Store.close w;
          (match Core.Journal.read_report path with
          | Error m ->
              Printf.eprintf "bench: FAIL WAL read-back: %s\n%!" m;
              exit 1
          | Ok r ->
              if r.Core.Journal.corrupt <> [] then begin
                Printf.eprintf
                  "bench: FAIL WAL read-back reported %d corrupt frame(s)\n%!"
                  (List.length r.Core.Journal.corrupt);
                exit 1
              end;
              if r.Core.Journal.frames <> 2 * List.length events then begin
                Printf.eprintf
                  "bench: FAIL WAL read-back lost frames (%d of %d)\n%!"
                  r.Core.Journal.frames
                  (2 * List.length events);
                exit 1
              end);
          Sys.remove path);
      Core.Engine.Stepper.result st
    end
    else
      Core.Engine.run ~seed:3 ~domains ~churn ?injector ?series
        ~net:s.Core.Scenario.net ~events policy
  in
  let wall = now_s () -. t0 in
  if obs then begin
    Core.Obs.Histogram.Registry.disable ();
    Core.Obs.Trace.uninstall ()
  end;
  let counters =
    Core.Obs.Counters.diff ~before ~after:(Core.Obs.Counters.snapshot ())
  in
  let n = Array.length run.Core.Engine.events in
  {
    m_name = name;
    m_events = n;
    m_rounds = run.Core.Engine.rounds;
    m_plan_units = run.Core.Engine.total_plan_units;
    m_planning_wall_s = run.Core.Engine.planning_wall_s;
    m_run_wall_s = wall;
    m_events_per_s = (if wall > 0.0 then float_of_int n /. wall else 0.0);
    m_probes_per_round =
      (if run.Core.Engine.rounds > 0 then
         float_of_int run.Core.Engine.total_plan_units
         /. float_of_int run.Core.Engine.rounds
       else 0.0);
    m_total_cost_mbit = run.Core.Engine.total_cost_mbit;
    m_digest =
      (match !fabric_digest with
      | Some d -> d
      | None -> Core.Run_digest.of_run run);
    m_recovery_digest =
      Option.map
        (fun inj -> Core.Recovery.digest (Core.Injector.recovery inj))
        injector;
    m_counters = counters;
  }

let json_of_measurement m =
  Core.Obs.Json.Obj
    [
      ("name", Core.Obs.Json.String m.m_name);
      ("events", Core.Obs.Json.Int m.m_events);
      ("rounds", Core.Obs.Json.Int m.m_rounds);
      ("plan_units", Core.Obs.Json.Int m.m_plan_units);
      ("planning_wall_s", Core.Obs.Json.Float m.m_planning_wall_s);
      ("run_wall_s", Core.Obs.Json.Float m.m_run_wall_s);
      ("events_per_s", Core.Obs.Json.Float m.m_events_per_s);
      ("probes_per_round", Core.Obs.Json.Float m.m_probes_per_round);
      ("total_cost_mbit", Core.Obs.Json.Float m.m_total_cost_mbit);
      ("digest", Core.Obs.Json.String m.m_digest);
      ( "recovery_digest",
        match m.m_recovery_digest with
        | Some d -> Core.Obs.Json.String d
        | None -> Core.Obs.Json.Null );
      ("counters", Core.Obs.Counters.to_json m.m_counters);
    ]

(* ------------------------------------------------------------------ *)

let () =
  Arg.parse args (fun _ -> raise (Arg.Bad "no positional arguments")) usage;
  let n_events = if !quick then 40 else 120 in
  let scenarios =
    [
      ("lmtf-churn-k8", Core.Policy.Lmtf { alpha = 4 }, `Off, false, false, `Off);
      ("reorder-churn-k8", Core.Policy.Reorder, `Off, false, false, `Off);
      (* Digest must equal lmtf-churn-k8's: an idle injector is free. *)
      ( "lmtf-empty-faults-k8",
        Core.Policy.Lmtf { alpha = 4 },
        `Empty,
        false,
        false,
        `Off );
      ( "lmtf-fault-churn-k8",
        Core.Policy.Lmtf { alpha = 4 },
        `Seeded,
        false,
        false,
        `Off );
      (* Digest must equal lmtf-churn-k8's: tracing, histograms and the
         per-round series are read-only observers of the run. *)
      ("lmtf-obs-on-k8", Core.Policy.Lmtf { alpha = 4 }, `Off, true, false, `Off);
      (* Digest must equal lmtf-churn-k8's: the online controller's
         ingest path (stepper submit + incremental stepping) is a
         restructuring of the batch loop, not a re-decision. *)
      ("serve-churn-k8", Core.Policy.Lmtf { alpha = 4 }, `Off, false, true, `Off);
      (* Digest must equal serve-churn-k8's: the serving telemetry
         observer (lifecycle stamps, fairness, SLO) records every round
         and completion without perturbing one decision. *)
      ( "serve-telemetry-k8",
        Core.Policy.Lmtf { alpha = 4 },
        `Off,
        false,
        true,
        `On );
      (* Digest must equal serve-churn-k8's: CRC32-framed write-ahead
         journaling is durable-store I/O, never a scheduling input. *)
      ("serve-wal-k8", Core.Policy.Lmtf { alpha = 4 }, `Off, false, true, `Off);
      (* Digest must equal serve-churn-k8's: the nu_watch watchdog
         (CUSUM/slope/Jain detectors, health machines, alert ring) is
         strictly recording-only even with tick hooks driven. *)
      ( "serve-watch-k8",
        Core.Policy.Lmtf { alpha = 4 },
        `Off,
        false,
        true,
        `Watch );
      (* Sharded fabric ladder. serve-shard1-k8's digest must equal
         serve-churn-k8's: one shard IS the single controller, wave for
         step. The wider rungs scale events/s with the shard count (a
         probe domain per shard). *)
      ("serve-shard1-k8", Core.Policy.Lmtf { alpha = 4 }, `Off, false, true, `Off);
      ("serve-shard2-k8", Core.Policy.Lmtf { alpha = 4 }, `Off, false, true, `Off);
      ("serve-shard4-k8", Core.Policy.Lmtf { alpha = 4 }, `Off, false, true, `Off);
    ]
  in
  let scenarios =
    (* Full mode tops the ladder with the million-flow churn cap: a
       hotter, deeper churn (ids in the 10M+ window) under four shards,
       the run hard-capped at one million churn placements. *)
    if !quick then scenarios
    else
      scenarios
      @ [
          ( "serve-shard4-churn1m-k8",
            Core.Policy.Lmtf { alpha = 4 },
            `Off,
            false,
            true,
            `Off );
        ]
  in
  let scenarios =
    (* Multicore counterparts run only when a fan-out width was asked
       for; their digests are required (below) to equal the sequential
       runs' bit for bit — the probe fan-out must never change a
       decision, only the wall clock. *)
    if !domains > 1 then
      scenarios
      @ [
          ( "lmtf-churn-mc-k8",
            Core.Policy.Lmtf { alpha = 4 },
            `Off,
            false,
            false,
            `Off );
          ("reorder-churn-mc-k8", Core.Policy.Reorder, `Off, false, false, `Off);
        ]
    else scenarios
  in
  let scenarios =
    match !only with
    | [] -> scenarios
    | names ->
        List.iter
          (fun n ->
            if
              not
                (List.exists (fun (name, _, _, _, _, _) -> name = n) scenarios)
            then begin
              Printf.eprintf "bench: unknown scenario %s\n%!" n;
              exit 2
            end)
          names;
        List.filter (fun (name, _, _, _, _, _) -> List.mem name names) scenarios
  in
  let measurements =
    List.map
      (fun (name, policy, faults, obs, stepper, telemetry) ->
        let domains =
          if Filename.check_suffix name "-mc-k8" then !domains else 1
        in
        let shards =
          match name with
          | "serve-shard1-k8" -> 1
          | "serve-shard2-k8" -> 2
          | "serve-shard4-k8" | "serve-shard4-churn1m-k8" -> 4
          | _ -> 0
        in
        let churn_big = name = "serve-shard4-churn1m-k8" in
        let n_events = if churn_big then n_events * 4 else n_events in
        Printf.eprintf "bench: running %s (%d events, %d domain%s)...\n%!" name
          n_events domains
          (if domains = 1 then "" else "s");
        measure ~name ~policy ~n_events ~faults ~obs ~stepper ~telemetry
          ~wal:(name = "serve-wal-k8") ~domains ~shards ~churn_big ())
      scenarios
  in
  let digest_must_match ~of_:other ~reference ~what =
    match
      ( List.find_opt (fun m -> m.m_name = reference) measurements,
        List.find_opt (fun m -> m.m_name = other) measurements )
    with
    | Some a, Some b when a.m_digest <> b.m_digest ->
        Printf.eprintf "bench: FAIL %s changed the run digest (%s vs %s)\n%!"
          what a.m_digest b.m_digest;
        exit 1
    | _ -> ()
  in
  (* Invariants checked on every bench run: fault hooks must not perturb
     a single scheduling decision while idle, and the full observability
     stack must not perturb one while recording. *)
  digest_must_match ~of_:"lmtf-empty-faults-k8" ~reference:"lmtf-churn-k8"
    ~what:"empty fault schedule";
  digest_must_match ~of_:"lmtf-obs-on-k8" ~reference:"lmtf-churn-k8"
    ~what:"enabled observability";
  digest_must_match ~of_:"serve-churn-k8" ~reference:"lmtf-churn-k8"
    ~what:"serving ingest path";
  digest_must_match ~of_:"serve-telemetry-k8" ~reference:"serve-churn-k8"
    ~what:"attached serving telemetry";
  digest_must_match ~of_:"serve-watch-k8" ~reference:"serve-churn-k8"
    ~what:"attached watchdog";
  digest_must_match ~of_:"serve-wal-k8" ~reference:"serve-churn-k8"
    ~what:"write-ahead journaling";
  digest_must_match ~of_:"serve-shard1-k8" ~reference:"serve-churn-k8"
    ~what:"sharded fabric with one shard";
  digest_must_match ~of_:"lmtf-churn-mc-k8" ~reference:"lmtf-churn-k8"
    ~what:"parallel probe fan-out (LMTF)";
  digest_must_match ~of_:"reorder-churn-mc-k8" ~reference:"reorder-churn-k8"
    ~what:"parallel probe fan-out (Reorder)";
  List.iter
    (fun m ->
      Printf.printf
        "%-20s events %4d  rounds %5d  probes/round %7.1f  planning %7.3fs  \
         wall %7.3fs  ev/s %7.1f  digest %s\n"
        m.m_name m.m_events m.m_rounds m.m_probes_per_round m.m_planning_wall_s
        m.m_run_wall_s m.m_events_per_s m.m_digest)
    measurements;
  let baseline =
    if !baseline_file = "" then None
    else begin
      match
        let ic = open_in !baseline_file in
        let len = in_channel_length ic in
        let body = really_input_string ic len in
        close_in ic;
        Core.Obs.Json.of_string body
      with
      | Ok j -> Some j
      | Error e ->
          Printf.eprintf "bench: bad baseline %s: %s\n%!" !baseline_file e;
          None
      | exception Sys_error e ->
          (* An unreadable baseline degrades to a baseline-less run —
             the measurements themselves are still worth keeping. *)
          Printf.eprintf "bench: cannot read baseline: %s\n%!" e;
          None
    end
  in
  (* Speedup report against the baseline's matching scenario names. *)
  let speedups =
    match baseline with
    | None -> []
    | Some j -> (
        match Core.Obs.Json.member "scenarios" j with
        | Some (Core.Obs.Json.List bases) ->
            List.filter_map
              (fun m ->
                List.find_map
                  (fun b ->
                    match
                      ( Core.Obs.Json.member "name" b,
                        Core.Obs.Json.member "planning_wall_s" b,
                        Core.Obs.Json.member "digest" b )
                    with
                    | ( Some (Core.Obs.Json.String n),
                        Some (Core.Obs.Json.Float w),
                        digest )
                      when n = m.m_name && m.m_planning_wall_s > 0.0 ->
                        let identical =
                          match digest with
                          | Some (Core.Obs.Json.String d) -> d = m.m_digest
                          | _ -> false
                        in
                        Some
                          ( m.m_name,
                            w /. m.m_planning_wall_s,
                            identical )
                    | _ -> None)
                  bases)
              measurements
        | _ -> [])
  in
  List.iter
    (fun (name, x, identical) ->
      Printf.printf "%-20s planning speedup vs baseline: %.2fx  (digest %s)\n"
        name x
        (if identical then "identical" else "DIFFERS"))
    speedups;
  let result =
    Core.Obs.Json.Obj
      (List.concat
         [
           [
             ("bench", Core.Obs.Json.String "sched_bench_pr10");
             ( "schema_version",
               Core.Obs.Json.Int Core.Obs.Regress.schema_version );
             ("mode", Core.Obs.Json.String (if !quick then "quick" else "full"));
             ("seed", Core.Obs.Json.Int !seed);
             ("n_events", Core.Obs.Json.Int n_events);
             ( "scenarios",
               Core.Obs.Json.List (List.map json_of_measurement measurements) );
           ];
           (match speedups with
           | [] -> []
           | _ ->
               [
                 ( "speedup_vs_baseline",
                   Core.Obs.Json.Obj
                     (List.map
                        (fun (n, x, identical) ->
                          ( n,
                            Core.Obs.Json.Obj
                              [
                                ("planning_wall", Core.Obs.Json.Float x);
                                ("digest_identical", Core.Obs.Json.Bool identical);
                              ] ))
                        speedups) );
               ]);
           (match baseline with
           | None -> []
           | Some j -> [ ("baseline", j) ]);
         ])
  in
  match !out_file with
  | "" -> ()
  | path ->
      let oc = open_out path in
      output_string oc (Core.Obs.Json.to_string result);
      output_string oc "\n";
      close_out oc;
      Printf.eprintf "bench: wrote %s\n%!" path
