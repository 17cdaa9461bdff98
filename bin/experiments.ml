(* Command-line driver regenerating every figure of the paper plus the
   ablation suite. `experiments all` reproduces the full evaluation. *)

open Cmdliner

let seed_arg =
  let doc = "Master seed for workload generation." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let seeds_arg =
  let doc = "Replication seeds (comma-separated)." in
  Arg.(value & opt (list int) [ 42; 43 ] & info [ "seeds" ] ~docv:"SEEDS" ~doc)

let alpha_arg =
  let doc = "LMTF/P-LMTF sample size alpha." in
  Arg.(value & opt int 4 & info [ "alpha" ] ~docv:"ALPHA" ~doc)

let samples_arg =
  let doc = "Probe flows per Fig.1 point." in
  Arg.(value & opt int 400 & info [ "samples" ] ~docv:"N" ~doc)

let util_arg =
  let doc = "Background fabric-utilisation target (0-0.95)." in
  Arg.(value & opt float 0.70 & info [ "util" ] ~docv:"U" ~doc)

let events_arg =
  let doc = "Number of queued update events." in
  Arg.(value & opt int 30 & info [ "events" ] ~docv:"N" ~doc)

let no_churn_arg =
  let doc = "Keep the background static (no churn)." in
  Arg.(value & flag & info [ "no-churn" ] ~doc)

(* ------------------------------------------------------------------ *)
(* Observability plumbing shared by summary / report / all.            *)

let write_json path json =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Obs.Json.to_string json);
      output_char oc '\n')

let trace_arg =
  let doc =
    "Record a span trace of the run and write it to $(docv) in Chrome \
     trace_event format (open in chrome://tracing or ui.perfetto.dev)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let counters_arg =
  let doc = "Print the observability counter table after the run." in
  Arg.(value & flag & info [ "counters" ] ~doc)

let hist_arg =
  let doc =
    "Record latency/size histograms (planner, migration, per-event service \
     times) during the run and include them in the JSON report."
  in
  Arg.(value & flag & info [ "hist" ] ~doc)

(* Run [f] under the requested instrumentation: capture spans in memory
   and export them as a Chrome trace on exit; print the counter delta
   attributable to [f]. *)
let with_obs ~trace ~counters f =
  let before = Obs.Counters.snapshot () in
  let captured =
    match trace with
    | None -> None
    | Some path ->
        let sink, events = Obs.Trace.memory () in
        Obs.Trace.install sink;
        Some (path, events)
  in
  Fun.protect
    ~finally:(fun () ->
      (match captured with
      | Some (path, events) ->
          Obs.Trace.uninstall ();
          let evs = events () in
          Obs.Export.write_chrome path evs;
          Format.printf "trace: wrote %d span events to %s@."
            (List.length evs) path
      | None -> ());
      if counters then
        Format.printf "%a@." Obs.Counters.pp_table
          (Obs.Counters.diff ~before ~after:(Obs.Counters.snapshot ())))
    f

(* The --policy flag of a one-policy run; [run] names it in the help. *)
let policy_flag ~run default =
  let doc =
    "Policy for the " ^ run
    ^ ": $(b,fifo), $(b,reorder), $(b,lmtf), $(b,plmtf), $(b,flow-rr) or \
       $(b,flow-arrival)."
  in
  Arg.(
    value
    & opt
        (enum
           [
             ("fifo", `Fifo);
             ("reorder", `Reorder);
             ("lmtf", `Lmtf);
             ("plmtf", `Plmtf);
             ("flow-rr", `Flow_rr);
             ("flow-arrival", `Flow_arrival);
           ])
        default
    & info [ "policy" ] ~docv:"POLICY" ~doc)

let policy_arg = policy_flag ~run:"report run" `Plmtf

let out_arg =
  let doc = "Write the JSON report to $(docv) instead of stdout." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let summary_cmd =
  let run seed alpha util n_events no_churn trace counters =
    with_obs ~trace ~counters (fun () ->
        let scenario = Scenario.prepare ~utilization:util ~seed () in
        Format.printf "network: %a@." Net_state.pp scenario.Scenario.net;
        let events = Scenario.events scenario ~n:n_events in
        let policies =
          [
            Policy.Fifo;
            Policy.Lmtf { alpha };
            Policy.Plmtf { alpha };
            Policy.Flow_level Policy.Round_robin;
          ]
        in
        let summaries =
          List.map
            (fun policy ->
              let churn =
                if no_churn then None
                else Some (Scenario.churn ~target:util ~seed:(seed + 2) scenario)
              in
              Metrics.of_run
                (Engine.run ?churn ~seed:(seed + 1)
                   ~net:(Net_state.copy scenario.Scenario.net)
                   ~events policy))
            policies
        in
        List.iter (fun s -> Format.printf "%a@." Metrics.pp_summary s) summaries;
        match summaries with
        | baseline :: others ->
            Format.printf "%a@."
              (fun ppf -> Metrics.pp_comparison ppf ~baseline)
              others
        | [] -> ())
  in
  Cmd.v
    (Cmd.info "summary"
       ~doc:"One-shot policy comparison with configurable workload")
    Term.(
      const run $ seed_arg $ alpha_arg $ util_arg $ events_arg $ no_churn_arg
      $ trace_arg $ counters_arg)

let policy_of_tag ~alpha = function
  | `Fifo -> Policy.Fifo
  | `Reorder -> Policy.Reorder
  | `Lmtf -> Policy.Lmtf { alpha }
  | `Plmtf -> Policy.Plmtf { alpha }
  | `Flow_rr -> Policy.Flow_level Policy.Round_robin
  | `Flow_arrival -> Policy.Flow_level Policy.By_arrival

let report_cmd =
  let run seed alpha util n_events no_churn policy_tag out trace counters hist =
    with_obs ~trace ~counters (fun () ->
        let scenario = Scenario.prepare ~utilization:util ~seed () in
        let events = Scenario.events scenario ~n:n_events in
        let policy = policy_of_tag ~alpha policy_tag in
        let churn =
          if no_churn then None
          else Some (Scenario.churn ~target:util ~seed:(seed + 2) scenario)
        in
        if hist then begin
          Obs.Histogram.Registry.reset ();
          Obs.Histogram.Registry.enable ()
        end;
        let before = Obs.Counters.snapshot () in
        let run_result =
          Engine.run ?churn ~seed:(seed + 1)
            ~net:(Net_state.copy scenario.Scenario.net)
            ~events policy
        in
        let run_counters =
          Obs.Counters.diff ~before ~after:(Obs.Counters.snapshot ())
        in
        let histograms =
          if hist then begin
            Obs.Histogram.Registry.disable ();
            Some (Obs.Histogram.Registry.snapshot ())
          end
          else None
        in
        let json =
          Run_report.to_json ~counters:run_counters ?histograms run_result
        in
        match out with
        | None -> print_endline (Obs.Json.to_string json)
        | Some path ->
            write_json path json;
            Format.printf "report: wrote %s@." path)
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Emit one run as a JSON artifact: summary, per-event results, \
          round log, counter snapshot and (on request) histograms")
    Term.(
      const run $ seed_arg $ alpha_arg $ util_arg $ events_arg $ no_churn_arg
      $ policy_arg $ out_arg $ trace_arg $ counters_arg $ hist_arg)

let profile_policy_arg = policy_flag ~run:"profiled run" `Lmtf

let collapsed_arg =
  let doc =
    "Write perf-style collapsed stacks to $(docv) (feed to flamegraph.pl or \
     paste into speedscope)."
  in
  Arg.(value & opt (some string) None & info [ "collapsed" ] ~docv:"FILE" ~doc)

let top_arg =
  let doc = "Rows in the printed hotspot table." in
  Arg.(value & opt int 10 & info [ "top" ] ~docv:"N" ~doc)

let profile_cmd =
  let run seed alpha util n_events no_churn policy_tag top collapsed out =
    let scenario = Scenario.prepare ~utilization:util ~seed () in
    let events = Scenario.events scenario ~n:n_events in
    let policy = policy_of_tag ~alpha policy_tag in
    let churn =
      if no_churn then None
      else Some (Scenario.churn ~target:util ~seed:(seed + 2) scenario)
    in
    (* The whole observability stack goes on for the run: spans feed the
       profiler, the registry feeds the histogram blocks. *)
    let sink, captured = Obs.Trace.memory () in
    Obs.Trace.install sink;
    Obs.Histogram.Registry.reset ();
    Obs.Histogram.Registry.enable ();
    let before = Obs.Counters.snapshot () in
    let run_result =
      Fun.protect
        ~finally:(fun () ->
          Obs.Histogram.Registry.disable ();
          Obs.Trace.uninstall ())
        (fun () ->
          Engine.run ?churn ~seed:(seed + 1)
            ~net:(Net_state.copy scenario.Scenario.net)
            ~events policy)
    in
    let run_counters =
      Obs.Counters.diff ~before ~after:(Obs.Counters.snapshot ())
    in
    let profile = Obs.Profile.of_events (captured ()) in
    let histograms = Obs.Histogram.Registry.snapshot () in
    Format.printf "profile: %d spans over %d events, %d rounds@."
      (Obs.Profile.span_count profile)
      (Array.length run_result.Engine.events)
      run_result.Engine.rounds;
    Format.printf "%a@." (Obs.Profile.pp_hotspots ~top) profile;
    List.iter
      (fun (name, h) -> Format.printf "%-28s %a@." name Obs.Histogram.pp h)
      histograms;
    (match collapsed with
    | None -> ()
    | Some path ->
        Out_channel.with_open_text path (fun oc ->
            output_string oc (Obs.Profile.collapsed profile));
        Format.printf "profile: wrote collapsed stacks to %s@." path);
    match out with
    | None -> ()
    | Some path ->
        let json =
          Run_report.to_json ~counters:run_counters ~histograms ~profile
            run_result
        in
        write_json path json;
        Format.printf "profile: wrote report to %s@." path
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Profile one run: span-tree hotspot table, histogram summaries, \
          flamegraph-ready collapsed stacks and a full JSON report")
    Term.(
      const run $ seed_arg $ alpha_arg $ util_arg $ events_arg $ no_churn_arg
      $ profile_policy_arg $ top_arg $ collapsed_arg $ out_arg)

let fig1_cmd =
  let run seed samples = Nu_expt.Fig1.run ~seed ~samples () in
  Cmd.v
    (Cmd.info "fig1" ~doc:"Success probability of migration-free insertion")
    Term.(const run $ seed_arg $ samples_arg)

let fig2_cmd =
  Cmd.v
    (Cmd.info "fig2" ~doc:"Worked example: flow-level vs event-level order")
    Term.(const Nu_expt.Fig2.run $ const ())

let fig3_cmd =
  Cmd.v
    (Cmd.info "fig3" ~doc:"Worked example: FIFO vs cost-ordered execution")
    Term.(const Nu_expt.Fig3.run $ const ())

let fig4_cmd =
  let run seeds = Nu_expt.Fig4.run ~seeds () in
  Cmd.v
    (Cmd.info "fig4" ~doc:"Flow-level vs event-level as events grow")
    Term.(const run $ seeds_arg)

let fig5_cmd =
  let run seeds = Nu_expt.Fig5.run ~seeds () in
  Cmd.v
    (Cmd.info "fig5" ~doc:"Flow-level vs event-level as the queue grows")
    Term.(const run $ seeds_arg)

let fig6_cmd =
  let run seeds alpha = Nu_expt.Fig6.run ~seeds ~alpha () in
  Cmd.v
    (Cmd.info "fig6" ~doc:"LMTF/P-LMTF reductions vs FIFO and plan time")
    Term.(const run $ seeds_arg $ alpha_arg)

let fig7_cmd =
  let run seeds alpha = Nu_expt.Fig7.run ~seeds ~alpha () in
  Cmd.v
    (Cmd.info "fig7" ~doc:"P-LMTF vs FIFO across event types and utilisation")
    Term.(const run $ seeds_arg $ alpha_arg)

let fig8_cmd =
  let run seeds alpha = Nu_expt.Fig8.run ~seeds ~alpha () in
  Cmd.v
    (Cmd.info "fig8" ~doc:"Queuing-delay reductions vs FIFO")
    Term.(const run $ seeds_arg $ alpha_arg)

let fig9_cmd =
  let run seed alpha = Nu_expt.Fig9.run ~seed ~alpha () in
  Cmd.v
    (Cmd.info "fig9" ~doc:"Per-event queuing delay under the three policies")
    Term.(const run $ seed_arg $ alpha_arg)

let mixed_cmd =
  let run seed alpha = Nu_expt.Mixed_issues.run ~seed ~alpha () in
  Cmd.v
    (Cmd.info "mixed"
       ~doc:"Extension: queue mixing additions, VM migrations, switch upgrades and link failures")
    Term.(const run $ seed_arg $ alpha_arg)

let arrivals_cmd =
  let run seed alpha = Nu_expt.Arrival_study.run ~seed ~alpha () in
  Cmd.v
    (Cmd.info "arrivals"
       ~doc:"Extension: Poisson event arrivals — ECT vs offered load")
    Term.(const run $ seed_arg $ alpha_arg)

let ablation_cmd =
  Cmd.v
    (Cmd.info "ablation" ~doc:"Design-choice ablations (alpha, greedy order, admission, routing)")
    Term.(const Nu_expt.Ablation.run_all $ const ())

let fault_seed_arg =
  let doc = "Seed for the generated fault schedule." in
  Arg.(value & opt int 7 & info [ "fault-seed" ] ~docv:"SEED" ~doc)

let fault_rate_arg =
  let doc = "Primary faults per simulated second." in
  Arg.(value & opt float 0.2 & info [ "fault-rate" ] ~docv:"RATE" ~doc)

let retry_max_arg =
  let doc = "Aborted attempts before an event degrades to best-effort." in
  Arg.(value & opt int 3 & info [ "retry-max" ] ~docv:"N" ~doc)

let chaos_cmd =
  let run seed alpha util n_events fault_seed fault_rate retry_max out trace
      counters =
    with_obs ~trace ~counters (fun () ->
        let params =
          {
            Nu_expt.Chaos.seed;
            fault_seed;
            fault_rate;
            retry_max;
            utilization = util;
            n_events;
            alpha;
          }
        in
        let result = Nu_expt.Chaos.run ~params () in
        Nu_expt.Chaos.print result;
        (match out with
        | None -> ()
        | Some path ->
            write_json path (Nu_expt.Chaos.result_to_json result);
            Format.printf "chaos: wrote %s@." path);
        if result.Nu_expt.Chaos.violations > 0 then exit 1)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Robustness: run a policy under a seeded fault schedule; exits \
          non-zero on any update-consistency invariant violation")
    Term.(
      const run $ seed_arg $ alpha_arg $ util_arg $ events_arg $ fault_seed_arg
      $ fault_rate_arg $ retry_max_arg $ out_arg $ trace_arg $ counters_arg)

(* ------------------------------------------------------------------ *)
(* Online serving: serve / snapshot / replay.                          *)

let ticks_arg =
  let doc = "Controller ticks to serve." in
  Arg.(value & opt int 200 & info [ "ticks" ] ~docv:"N" ~doc)

let rate_arg =
  let doc = "Mean update events arriving per tick (synthetic source)." in
  Arg.(value & opt float 0.4 & info [ "rate" ] ~docv:"R" ~doc)

let flows_per_event_arg =
  let doc = "Install flows per synthetic update event." in
  Arg.(value & opt int 3 & info [ "flows-per-event" ] ~docv:"N" ~doc)

let tenants_arg =
  let doc = "Tenant labels (comma-separated) for synthetic arrivals." in
  Arg.(
    value
    & opt (list string) [ "tenant-a"; "tenant-b"; "tenant-c" ]
    & info [ "tenants" ] ~docv:"NAMES" ~doc)

let stream_arg =
  let doc =
    "Serve the JSONL command stream in $(docv) instead of the synthetic \
     arrival process (one {\"tick\":N,\"tenant\":\"...\",\"event\":{...}} \
     object per line, tick-sorted)."
  in
  Arg.(value & opt (some string) None & info [ "stream" ] ~docv:"FILE" ~doc)

let capacity_arg =
  let doc =
    "Admission queue capacity (requests); arrivals that find it full are \
     deferred to the next tick."
  in
  Arg.(value & opt int 64 & info [ "capacity" ] ~docv:"N" ~doc)

let drain_arg =
  let doc = "Max requests drained into the engine per tick." in
  Arg.(value & opt int 8 & info [ "drain" ] ~docv:"N" ~doc)

let steps_arg =
  let doc = "Max engine service rounds per tick." in
  Arg.(value & opt int 4 & info [ "steps" ] ~docv:"N" ~doc)

let domains_arg =
  let doc =
    "Probe fan-out width (OCaml domains). Decisions and digests are \
     bit-identical at any width; replay may use a different width than the \
     recorded run."
  in
  Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N" ~doc)

let tick_dt_arg =
  let doc = "Simulated seconds per controller tick." in
  Arg.(value & opt float 0.05 & info [ "tick-dt" ] ~docv:"SECONDS" ~doc)

let serve_churn_arg =
  let doc = "Enable checkpoint-safe background churn at the --util target." in
  Arg.(value & flag & info [ "churn" ] ~doc)

let checkpoint_arg =
  let doc =
    "Checkpoint file. With --checkpoint-every K, saved after every K-th \
     tick; otherwise saved once after the serving phase."
  in
  Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE" ~doc)

let checkpoint_every_arg =
  let doc =
    "Checkpoint period in ticks (0 = only at end of serving); needs \
     --checkpoint."
  in
  Arg.(value & opt int 0 & info [ "checkpoint-every" ] ~docv:"K" ~doc)

let journal_arg =
  let doc =
    "Write the append-only operation journal (a CRC-framed record log) to \
     $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)

let no_complete_arg =
  let doc = "Stop after the serving phase without draining to quiescence." in
  Arg.(value & flag & info [ "no-complete" ] ~doc)

let expect_digest_arg =
  let doc = "Fail (exit 1) unless the final decision digest equals $(docv)." in
  Arg.(value & opt (some string) None & info [ "expect-digest" ] ~docv:"HEX" ~doc)

let upto_arg =
  let doc = "Replay journal ticks strictly below $(docv) only." in
  Arg.(value & opt (some int) None & info [ "upto" ] ~docv:"TICK" ~doc)

let serve_fault_rate_arg =
  let doc = "Primary faults per simulated second during serving (0 = none)." in
  Arg.(value & opt float 0.0 & info [ "fault-rate" ] ~docv:"RATE" ~doc)

let metrics_dir_arg =
  let doc =
    "Enable live telemetry and write the OpenMetrics exposition file \
     ($(docv)/metrics.prom, atomic rename) and the request-lifecycle \
     record log ($(docv)/lifecycle.jsonl) there."
  in
  Arg.(value & opt (some string) None & info [ "metrics-dir" ] ~docv:"DIR" ~doc)

let metrics_every_arg =
  let doc = "Rewrite the exposition file every $(docv) ticks." in
  Arg.(value & opt int 10 & info [ "metrics-every" ] ~docv:"N" ~doc)

let watch_flag_arg =
  let doc =
    "Attach the streaming watchdog (requires $(b,--metrics-dir)): CUSUM \
     change-point, backlog-slope, fairness-collapse and WAL/restart-rate \
     detectors drive per-tenant health state machines; alerts stream to \
     $(i,DIR)/alerts.jsonl, observations to $(i,DIR)/watch.jsonl, and \
     alerts.json/health.json are written at retirement."
  in
  Arg.(value & flag & info [ "watch" ] ~doc)

(* The serving configuration and source spec are rebuilt identically by
   serve and replay from the same flags — restore validates the pair
   against the checkpoint's fingerprint. *)
let serve_cfg_term =
  let mk seed alpha util policy_tag capacity drain steps tick_dt churn domains
      =
    {
      Serve.policy = policy_of_tag ~alpha policy_tag;
      engine_seed = seed + 1;
      admission_capacity = capacity;
      admission_policy = Admission.Block;
      drain_per_tick = drain;
      steps_per_tick = steps;
      tick_dt_s = tick_dt;
      churn =
        (if churn then
           Some
             {
               Serve.churn_seed = seed + 2;
               churn_target = util;
               churn_max_per_round = 200;
               churn_first_id = 10_000_000;
             }
         else None);
      domains;
    }
  in
  Term.(
    const mk $ seed_arg $ alpha_arg $ util_arg $ policy_arg $ capacity_arg
    $ drain_arg $ steps_arg $ tick_dt_arg $ serve_churn_arg
    $ domains_arg)

let source_spec_term =
  let mk seed rate flows_per_event tenants stream =
    match stream with
    | Some path -> Serve_source.Stream path
    | None ->
        Serve_source.Synthetic
          {
            seed = seed + 3;
            rate_per_tick = rate;
            flows_per_event;
            tenants;
            first_event_id = 1;
            first_flow_id = 1_000_000;
          }
  in
  Term.(
    const mk $ seed_arg $ rate_arg $ flows_per_event_arg $ tenants_arg
    $ stream_arg)

(* One summary for every shard count: per-tenant admission stats, and
   with two or more shards the coordinator and per-shard digests. *)
let print_summary t =
  let shards = Shard_fabric.shard_count t in
  Format.printf
    "serve: %d tick(s), %d shard(s), %d event(s) completed, backlog %d, \
     deferred %d@."
    (Shard_fabric.tick_count t) shards (Shard_fabric.completed t)
    (List.fold_left ( + ) 0 (List.init shards (Shard_fabric.backlog t)))
    (Shard_fabric.deferred_count t);
  for k = 0 to shards - 1 do
    List.iter
      (fun (tenant, (admitted, drained)) ->
        Format.printf "  %s%-12s admitted %d, drained %d@."
          (if shards > 1 then Printf.sprintf "shard %d " k else "")
          tenant admitted drained)
      (Admission.tenant_stats (Shard_fabric.admission t k))
  done;
  if shards > 1 then begin
    Format.printf "  coordinator: %d journal entr(ies)@."
      (Shard_coord.entries (Shard_fabric.coord t));
    List.iteri
      (fun k d -> Format.printf "  shard %d digest %s@." k d)
      (Shard_fabric.shard_digests t)
  end

(* Shared by serve and replay: telemetry is recording-only, so a replay
   may attach it even when the original run did not — the decision
   digest is unaffected either way. *)
let make_telemetry ~metrics_every ?(watch = false) metrics_dir =
  if watch && metrics_dir = None then begin
    Format.eprintf "serve: --watch requires --metrics-dir@.";
    exit 2
  end;
  Option.map
    (fun dir ->
      Serve_telemetry.create
        {
          Serve_telemetry.metrics_dir = Some dir;
          metrics_every;
          watch =
            (if watch then
               Some { Obs.Watch.dir = Some dir }
             else None);
        })
    metrics_dir

(* After retirement: print the alert summary and drop the alerts.json /
   health.json artifacts next to the journals. *)
let finish_watch telemetry metrics_dir =
  match Option.bind telemetry Serve_telemetry.watch with
  | None -> None
  | Some w ->
      (match metrics_dir with
      | Some dir ->
          write_json (Filename.concat dir "alerts.json") (Obs.Watch.alerts_json w);
          write_json (Filename.concat dir "health.json") (Obs.Watch.health_json w)
      | None -> ());
      Format.printf
        "watch: %d alert(s) (%d critical), global health %s, digest %s@."
        (Obs.Watch.alert_total w)
        (Obs.Watch.critical_total w)
        (Obs.Health.state_name (Obs.Watch.global_state w))
        (Obs.Watch.alert_digest w);
      Some w

let print_telemetry_summary telemetry metrics_dir =
  match (telemetry, metrics_dir) with
  | Some tel, Some dir ->
      Format.printf "telemetry: %d stamp(s), %d exposition write(s) in %s@."
        (Obs.Lifecycle.stamped (Serve_telemetry.lifecycle tel))
        (Serve_telemetry.expo_writes tel)
        dir
  | _ -> ()

let shards_arg =
  let doc =
    "Serve through $(docv) shard controllers over one fabric. One shard is \
     the single controller: its journal sits at the --journal path itself."
  in
  Arg.(value & opt int 1 & info [ "shards" ] ~docv:"N" ~doc)

let regions_arg =
  let doc =
    "Partition-map regions for --shards (0 = auto: max 8 shards). On the \
     pod-major Fat-Tree host numbering, 8 regions make a region a pod."
  in
  Arg.(value & opt int 0 & info [ "regions" ] ~docv:"R" ~doc)

let kill_shard_arg =
  let doc =
    "Crash-injection: abort shard $(docv)'s write-ahead journal mid-run \
     (with --kill-at), then recover the whole fabric from the checkpoint \
     + journals and keep serving. Requires --journal and --checkpoint."
  in
  Arg.(value & opt int (-1) & info [ "kill-shard" ] ~docv:"K" ~doc)

let kill_at_arg =
  let doc = "Tick at which --kill-shard strikes, from 1 to --ticks (a \
             checkpoint is saved halfway there)." in
  Arg.(value & opt int 0 & info [ "kill-at" ] ~docv:"T" ~doc)

let fabric_config cfg ~shards ~regions =
  if shards < 1 then begin
    Format.eprintf "--shards must be >= 1@.";
    exit 2
  end;
  Shard_fabric.default_config
    ?regions:(if regions > 0 then Some regions else None)
    cfg ~shards

(* The retry budget of --retry-max: serve's injector aborts on it, and
   recovery and replay must thaw the checkpoint's injector on it too. *)
let retry_of_max retry_max =
  { Retry_policy.max_attempts = retry_max }

(* Serve's fault injector: a seeded schedule over the run's simulated
   horizon. Fault injection needs the single controller. *)
let make_injector cfg ~shards ~topology ~ticks ~fault_seed ~fault_rate
    ~retry =
  if fault_rate <= 0.0 then None
  else if shards > 1 then begin
    Format.eprintf "fault injection needs one shard (--shards 1)@.";
    exit 2
  end
  else
    let fconfig =
      {
        Fault_model.default_config with
        Fault_model.rate_per_s = fault_rate;
        horizon_s = float_of_int ticks *. cfg.Serve.tick_dt_s;
      }
    in
    Some
      (Injector.create ~retry
         (Fault_model.generate ~config:fconfig ~seed:fault_seed topology))

(* The serve path for every shard count: wave-synchronised controllers
   over one fabric, per-shard WALs, checkpoint-chain generations every
   --checkpoint-every ticks (or once at the end), and optionally a
   mid-run crash of one shard's WAL followed by whole-fabric recovery.
   The printed digest must be bit-identical to the same run without the
   crash. The crash flags are checked before anything is written.
   [make_telemetry] builds each fabric's telemetry: the first fabric's,
   and after a crash the recovered one's, which starts on fresh
   telemetry as a restarted process would. Returns the last fabric and
   its telemetry. *)
let serve_fabric ?injector ~retry fcfg spec ~scenario ~ticks ~checkpoint
    ~checkpoint_every ~journal_path ~kill_shard ~kill_at ~make_telemetry =
  let kill =
    if kill_shard < 0 then None
    else begin
      if kill_at <= 0 then begin
        Format.eprintf "serve: --kill-shard requires --kill-at T > 0@.";
        exit 2
      end;
      if kill_at > ticks then begin
        Format.eprintf "serve: --kill-at %d is past --ticks %d@." kill_at ticks;
        exit 2
      end;
      if kill_shard >= fcfg.Shard_fabric.shards then begin
        Format.eprintf "serve: --kill-shard %d out of range (shards %d)@."
          kill_shard fcfg.Shard_fabric.shards;
        exit 2
      end;
      match (journal_path, checkpoint) with
      | Some jb, Some cp -> Some (jb, cp)
      | _ ->
          Format.eprintf "serve: --kill-shard requires --journal and \
                          --checkpoint@.";
          exit 2
    end
  in
  let telemetry = make_telemetry () in
  Option.iter (fun p -> Obs.Store.mkdir_p (Filename.dirname p)) journal_path;
  Option.iter (fun p -> Obs.Store.mkdir_p (Filename.dirname p)) checkpoint;
  let t =
    Shard_fabric.create ?injector ?telemetry ?journal_base:journal_path fcfg
      ~topology:scenario.Scenario.topology ~net:scenario.Scenario.net
      ~source_spec:spec
  in
  match kill with
  | Some (journal_base, cp_path) -> (
      let cp_at = max 1 (kill_at / 2) in
      Shard_fabric.run t ~ticks:cp_at;
      Shard_fabric.save_checkpoint t ~path:cp_path;
      Shard_fabric.run t ~ticks:(kill_at - cp_at);
      Shard_fabric.kill_shard_journal t kill_shard;
      Format.printf "serve: killed shard %d's journal at tick %d@." kill_shard
        (Shard_fabric.tick_count t);
      (* The crashed fabric is abandoned where it stands, its telemetry
         retired; recovery works from durable state alone. The fresh
         watcher rebuilds its state from watch.jsonl below the restored
         tick, so the replayed ticks are observed once. *)
      Option.iter Serve_telemetry.on_retire telemetry;
      let telemetry = make_telemetry () in
      match
        Shard_fabric.recover ?telemetry ~retry fcfg
          ~topology:scenario.Scenario.topology ~source_spec:spec
          ~checkpoint_path:cp_path ~journal_base
      with
      | Error m ->
          Format.eprintf "serve: recovery failed: %s@." m;
          exit 1
      | Ok (t2, replayed) ->
          Format.printf "serve: recovered at tick %d (%d tick(s) replayed)@."
            (Shard_fabric.tick_count t2)
            replayed;
          let remaining = ticks - Shard_fabric.tick_count t2 in
          if remaining > 0 then Shard_fabric.run t2 ~ticks:remaining;
          (t2, telemetry))
  | None ->
      Shard_fabric.run ?checkpoint_path:checkpoint ~checkpoint_every t ~ticks;
      (match checkpoint with
      | Some path when checkpoint_every = 0 ->
          Shard_fabric.save_checkpoint t ~path
      | _ -> ());
      (t, telemetry)

let serve_cmd =
  let run cfg spec seed util ticks fault_seed fault_rate retry_max checkpoint
      checkpoint_every journal_path no_complete metrics_dir metrics_every watch
      out trace counters hist shards regions kill_shard kill_at =
    if checkpoint_every < 0 then begin
      Format.eprintf "serve: --checkpoint-every must be >= 0 (got %d)@."
        checkpoint_every;
      exit 2
    end;
    if checkpoint_every > 0 && checkpoint = None then begin
      Format.eprintf
        "serve: --checkpoint-every %d needs --checkpoint FILE to save to@."
        checkpoint_every;
      exit 2
    end;
    with_obs ~trace ~counters (fun () ->
        try
          let fcfg = fabric_config cfg ~shards ~regions in
          if out <> None && shards > 1 then begin
            Format.eprintf "serve: --out needs one shard (--shards 1)@.";
            exit 2
          end;
          let scenario = Scenario.prepare ~utilization:util ~seed () in
          let retry = retry_of_max retry_max in
          let injector =
            make_injector cfg ~shards ~topology:scenario.Scenario.topology
              ~ticks ~fault_seed ~fault_rate ~retry
          in
          if hist then begin
            Obs.Histogram.Registry.reset ();
            Obs.Histogram.Registry.enable ()
          end;
          let before = Obs.Counters.snapshot () in
          let t, telemetry =
            serve_fabric fcfg spec ?injector ~retry ~scenario ~ticks ~checkpoint
              ~checkpoint_every ~journal_path ~kill_shard ~kill_at
              ~make_telemetry:(fun () ->
                make_telemetry ~metrics_every ~watch metrics_dir)
          in
          if not no_complete then Shard_fabric.complete t;
          let results = Shard_fabric.retire t in
          let run_counters =
            Obs.Counters.diff ~before ~after:(Obs.Counters.snapshot ())
          in
          let histograms =
            if hist then begin
              Obs.Histogram.Registry.disable ();
              Some (Obs.Histogram.Registry.snapshot ())
            end
            else None
          in
          print_summary t;
          Format.printf "digest: %s@." (Shard_fabric.digest t);
          print_telemetry_summary telemetry metrics_dir;
          let watcher = finish_watch telemetry metrics_dir in
          match (out, results) with
          | Some path, [ result ] ->
              let json =
                Run_report.to_json ~counters:run_counters ?histograms
                  ?telemetry:(Option.map Serve_telemetry.to_json telemetry)
                  ?alerts:(Option.map Obs.Watch.report_json watcher)
                  result
              in
              write_json path json;
              Format.printf "serve: wrote %s@." path
          | _ -> ()
        with Invalid_argument m | Failure m ->
          Format.eprintf "serve: %s@." m;
          exit 1)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the online update controller: seeded or JSONL arrivals through \
          bounded admission into the incremental engine — one controller or \
          N shards over one fabric — with optional fault injection, durable \
          checkpoints and a write-ahead journal")
    Term.(
      const run $ serve_cfg_term $ source_spec_term $ seed_arg $ util_arg
      $ ticks_arg $ fault_seed_arg $ serve_fault_rate_arg $ retry_max_arg
      $ checkpoint_arg $ checkpoint_every_arg $ journal_arg $ no_complete_arg
      $ metrics_dir_arg $ metrics_every_arg $ watch_flag_arg $ out_arg
      $ trace_arg $ counters_arg $ hist_arg $ shards_arg $ regions_arg
      $ kill_shard_arg $ kill_at_arg)

let checkpoint_file_arg =
  let doc = "Checkpoint file to inspect." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"CHECKPOINT" ~doc)

let snapshot_cmd =
  let run path =
    let topology = Fat_tree.to_topology (Fat_tree.create ~k:8 ()) in
    match Serve_checkpoint.load ~graph:topology.Topology.graph path with
    | Error m ->
        Format.eprintf "snapshot: %s: %s@." path m;
        exit 1
    | Ok cp ->
        Format.printf "checkpoint: %s@." path;
        Format.printf "  tick:       %d (chain seq %d)@." cp.Serve_checkpoint.tick
          cp.Serve_checkpoint.seq;
        List.iteri
          (fun k (sh : Serve_checkpoint.shard) ->
            let st = sh.Serve_checkpoint.stepper in
            let queued =
              List.fold_left
                (fun acc (_, q) -> acc + List.length q)
                0 sh.Serve_checkpoint.admission.Admission.fz_queues
            in
            Format.printf "  shard %d:@." k;
            Format.printf "    engine:     %d completed, %d queued, %d pending, \
                           %d held, %d round(s), now %.3f s@."
              (List.length st.Engine.Stepper.fz_results)
              (List.length st.Engine.Stepper.fz_queue)
              (List.length st.Engine.Stepper.fz_pending)
              (List.length st.Engine.Stepper.fz_held)
              st.Engine.Stepper.fz_rounds st.Engine.Stepper.fz_now;
            Format.printf "    admission:  %d queued across %d tenant(s), %d \
                           deferred@."
              queued
              (List.length sh.Serve_checkpoint.admission.Admission.fz_tenants)
              (List.length sh.Serve_checkpoint.deferred))
          cp.Serve_checkpoint.shards;
        Format.printf "  injector:   %s@."
          (match cp.Serve_checkpoint.injector with
          | None -> "none"
          | Some fz ->
              Printf.sprintf "%d fault(s) outstanding"
                (List.length fz.Injector.fz_pending));
        Format.printf "  source:     %s@."
          (match cp.Serve_checkpoint.source with
          | Serve_source.F_synthetic f ->
              Printf.sprintf "synthetic (next event id %d)" f.next_event_id
          | Serve_source.F_stream f -> Printf.sprintf "stream (pos %d)" f.pos);
        Format.printf "  meta:       %s@."
          (Obs.Json.to_string cp.Serve_checkpoint.meta)
  in
  Cmd.v
    (Cmd.info "snapshot"
       ~doc:"Validate a serve checkpoint and print its contents, shard by shard")
    Term.(const run $ checkpoint_file_arg)

let replay_journal_arg =
  let doc =
    "Write-ahead journal to re-drive: the --journal path the serving run \
     was given."
  in
  Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)

let replay_checkpoint_arg =
  let doc =
    "Checkpoint file to restore from. When omitted the run cold-starts \
     from the scenario (--seed, --util) and replays the journals from \
     tick 0."
  in
  Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE" ~doc)

(* External audit: rebuild the controller(s) from durable state alone —
   a checkpoint, or a cold start from the scenario the serving run used —
   strictly re-drive every committed tick, drain, and assert the
   digest. *)
let replay_cmd =
  let run cfg spec checkpoint journal_path upto retry_max no_complete
      metrics_dir metrics_every watch expect_digest shards regions seed util
      fault_rate =
    let fcfg = fabric_config cfg ~shards ~regions in
    let journal_base =
      match journal_path with
      | Some jb -> jb
      | None ->
          Format.eprintf "replay: --journal is required@.";
          exit 2
    in
    if fault_rate > 0.0 && (shards > 1 || checkpoint = None) then begin
      Format.eprintf
        "replay: a faulted run replays at one shard from its --checkpoint, \
         which carries the fault injector@.";
      exit 2
    end;
    let scenario = Scenario.prepare ~utilization:util ~seed () in
    let retry = retry_of_max retry_max in
    let telemetry = make_telemetry ~metrics_every ~watch metrics_dir in
    match
      Shard_fabric.replay ?telemetry ~retry ?checkpoint_path:checkpoint
        ?upto fcfg ~topology:scenario.Scenario.topology
        ~net:scenario.Scenario.net ~source_spec:spec ~journal_base
    with
    | Error m ->
        Format.eprintf "replay: %s@." m;
        exit 1
    | Ok (t, replayed) -> (
        Format.printf "replay: re-drove %d committed tick(s) across %d \
                       journal(s)@."
          replayed shards;
        if not no_complete then Shard_fabric.complete t;
        let digest = Shard_fabric.digest t in
        ignore (Shard_fabric.retire t : Engine.run_result list);
        print_summary t;
        Format.printf "digest: %s@." digest;
        print_telemetry_summary telemetry metrics_dir;
        ignore (finish_watch telemetry metrics_dir);
        match expect_digest with
        | Some d when d <> digest ->
            Format.eprintf "replay: digest mismatch: expected %s, got %s@." d
              digest;
            exit 1
        | Some _ -> Format.printf "replay: digest matches@."
        | None -> ())
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Rebuild a serving run from its checkpoint and journals, re-drive \
          them deterministically and print (optionally assert) the decision \
          digest"
       ~man:
         [
           `P
             "Replay takes the serving run's own flags: the configuration \
              and source must match the checkpoint's fingerprint. A run \
              served with $(b,--fault-rate) replays from its checkpoint, \
              which carries the fault injector.";
           `P
             "Telemetry is recording-only: attaching $(b,--metrics-dir) to a \
              replay never changes the digest, even when the original run \
              served without it.";
         ])
    Term.(
      const run $ serve_cfg_term $ source_spec_term $ replay_checkpoint_arg
      $ replay_journal_arg $ upto_arg $ retry_max_arg $ no_complete_arg
      $ metrics_dir_arg $ metrics_every_arg $ watch_flag_arg
      $ expect_digest_arg $ shards_arg $ regions_arg $ seed_arg $ util_arg
      $ serve_fault_rate_arg)

(* ------------------------------------------------------------------ *)
(* Crash storm: the same serving run twice — once uninterrupted, once
   under seeded storage faults and supervision — asserting the storm
   changes nothing about the decisions.                                 *)

let crashes_arg =
  let doc = "Number of seeded storage faults (crash/corrupt points)." in
  Arg.(value & opt int 8 & info [ "crashes" ] ~docv:"N" ~doc)

let storm_dir_arg =
  let doc =
    "Directory for the storm's durable store (journal + checkpoint chain) \
     and report artifacts (faults.json, recovery.json, journal_report.json)."
  in
  Arg.(
    value & opt string "crashstorm_out" & info [ "dir" ] ~docv:"DIR" ~doc)

let max_restarts_arg =
  let doc = "Give up after $(docv) supervised restarts." in
  Arg.(value & opt int 16 & info [ "max-restarts" ] ~docv:"N" ~doc)

let crashstorm_cmd =
  let run cfg spec seed util ticks crashes fault_seed max_restarts dir trace
      counters =
    with_obs ~trace ~counters (fun () ->
        try
          (* Reference: the identical run, uninterrupted and storeless. *)
          let s0 = Scenario.prepare ~utilization:util ~seed () in
          let t0 =
            Serve.create cfg ~topology:s0.Scenario.topology
              ~net:s0.Scenario.net ~source_spec:spec
          in
          Serve.run ~ticks t0;
          Serve.complete t0;
          let reference = Serve.digest t0 in
          ignore (Serve.retire t0 : Engine.run_result);
          Format.printf "uninterrupted digest: %s@." reference;
          (* Stormed run: durable store under seeded fault pressure. *)
          Obs.Store.mkdir_p dir;
          let journal_path = Filename.concat dir "journal.wal" in
          let checkpoint_path = Filename.concat dir "checkpoint.json" in
          let stale =
            (checkpoint_path ^ ".tmp")
            :: List.map (Serve_checkpoint.Chain.gen_path checkpoint_path)
                 (List.init 9 Fun.id)
            @ List.map (Journal.segment_path journal_path) (List.init 9 Fun.id)
          in
          List.iter (fun p -> if Sys.file_exists p then Sys.remove p) stale;
          let plan =
            Store_fault.generate
              ~config:
                {
                  Store_fault.n_faults = crashes;
                  ops_span = max 40 (ticks * 3);
                }
              ~seed:fault_seed ()
          in
          let fault = Store_fault.create plan in
          let storm = Scenario.prepare ~utilization:util ~seed () in
          let fresh_net () =
            (Scenario.prepare ~utilization:util ~seed ()).Scenario.net
          in
          let outcome =
            Supervisor.run
              ~sup:{ Supervisor.max_restarts }
              ~fault
              ~jitter_seed:(seed lxor (fault_seed * 0x9E3779B1))
              ~serve_config:cfg ~source_spec:spec
              ~topology:storm.Scenario.topology ~fresh_net ~journal_path
              ~checkpoint_path ~ticks ()
          in
          write_json (Filename.concat dir "faults.json")
            (Store_fault.to_json fault);
          write_json
            (Filename.concat dir "recovery.json")
            (Obs.Json.Obj
               [
                 ("reference_digest", Obs.Json.String reference);
                 ("outcome", Supervisor.outcome_to_json outcome);
               ]);
          (match Journal.read_report journal_path with
          | Ok report ->
              write_json
                (Filename.concat dir "journal_report.json")
                (Obs.Store.report_to_json report)
          | Error m -> Format.eprintf "crashstorm: journal report: %s@." m);
          Format.printf
            "storm: %d fault(s) armed, %d fired, %d restart(s), %d corrupt \
             frame(s) skipped@."
            (List.length plan)
            (Store_fault.fired_count fault)
            outcome.Supervisor.restarts outcome.Supervisor.corrupt_frames;
          List.iter
            (fun e ->
              match e with
              | Supervisor.Failed { attempt; cls; reason; _ } ->
                  Format.printf "  attempt %d died: [%s] %s@." attempt
                    (Supervisor.class_name cls)
                    reason
              | Supervisor.Started { attempt; from_tick; fallback_depth; replayed }
                when fallback_depth > 0 ->
                  Format.printf
                    "  attempt %d recovered from tick %d (fallback depth %d, \
                     %d tick(s) replayed)@."
                    attempt from_tick fallback_depth replayed
              | _ -> ())
            outcome.Supervisor.events;
          Format.printf "recovery digest: %s@." outcome.Supervisor.recovery_digest;
          if outcome.Supervisor.gave_up then begin
            Format.eprintf "crashstorm: supervisor gave up after %d restart(s)@."
              outcome.Supervisor.restarts;
            exit 1
          end;
          let digest = Option.get outcome.Supervisor.digest in
          Format.printf "digest: %s@." digest;
          if digest <> reference then begin
            Format.eprintf
              "crashstorm: digest mismatch: storm %s, uninterrupted %s@."
              digest reference;
            exit 1
          end;
          Format.printf
            "crashstorm: storm digest matches uninterrupted digest@."
        with Invalid_argument m | Failure m ->
          Format.eprintf "crashstorm: %s@." m;
          exit 1)
  in
  Cmd.v
    (Cmd.info "crashstorm"
       ~doc:
         "Serve under seeded storage faults (torn writes, bit flips, ENOSPC, \
          fsync loss, kills) with supervised recovery, and assert the \
          decision digest matches the uninterrupted run bit-for-bit"
       ~man:
         [
           `P
             "The storm leaves its durable store in $(b,--dir); audit it \
              externally with $(b,replay --checkpoint DIR/checkpoint.json \
              --journal DIR/journal.wal --expect-digest D) where D is the \
              printed digest.";
         ])
    Term.(
      const run $ serve_cfg_term $ source_spec_term $ seed_arg $ util_arg
      $ ticks_arg $ crashes_arg $ fault_seed_arg $ max_restarts_arg
      $ storm_dir_arg $ trace_arg $ counters_arg)

(* ------------------------------------------------------------------ *)
(* Telemetry summary: validate a metrics dir's exposition file and fold
   its lifecycle log into the per-tenant fairness table.               *)

(* The offline readers' verdict on a record log's damage: a torn tail
   (the writer died mid-append) is reported and tolerated; any other
   skipped frame is corruption and exits with [code]. *)
let tolerate_torn_tail ~what ~code path corrupt =
  List.iter
    (fun (cf : Obs.Store.corrupt_frame) ->
      if cf.Obs.Store.cf_torn then
        Format.printf
          "%s: torn tail of %s skipped at segment %d offset %d (crash \
           mid-append)@."
          what path cf.Obs.Store.cf_segment cf.Obs.Store.cf_offset
      else begin
        Format.eprintf "%s: %s: corrupt frame at segment %d offset %d: %s@."
          what path cf.Obs.Store.cf_segment cf.Obs.Store.cf_offset
          cf.Obs.Store.cf_reason;
        exit code
      end)
    corrupt

let telemetry_dir_arg =
  let doc = "Metrics directory written by $(b,serve --metrics-dir)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc)

let telemetry_cmd =
  let run dir =
    let prom = Filename.concat dir "metrics.prom" in
    let jsonl = Filename.concat dir "lifecycle.jsonl" in
    if not (Sys.file_exists prom) && not (Sys.file_exists jsonl) then begin
      Format.eprintf "telemetry: %s has neither metrics.prom nor \
                      lifecycle.jsonl@." dir;
      exit 1
    end;
    if Sys.file_exists prom then begin
      let text =
        match Obs.Store.read_file prom with
        | Ok text -> text
        | Error m ->
            Format.eprintf "telemetry: %s@." m;
            exit 1
      in
      match Obs.Expo.validate text with
      | Error m ->
          Format.eprintf "telemetry: %s: invalid exposition: %s@." prom m;
          exit 1
      | Ok () ->
          Format.printf "exposition: %s OK (%d byte(s), %d line(s))@." prom
            (String.length text)
            (List.length (String.split_on_char '\n' text) - 1)
    end;
    if Sys.file_exists jsonl then begin
      match Obs.Lifecycle.read_log jsonl with
      | Error m ->
          Format.eprintf "telemetry: %s: %s@." jsonl m;
          exit 1
      | Ok r ->
          tolerate_torn_tail ~what:"telemetry" ~code:1 jsonl
            r.Obs.Store.corrupt;
          let entries = r.Obs.Store.entries in
          (* Serving telemetry's live fold, over the logged stamps. *)
          let f = Obs.Fairness.of_log entries in
          let views = Obs.Fairness.view f in
          Format.printf "lifecycle: %s, %d stamp(s), %d tenant(s)@." jsonl
            (List.length entries) (List.length views);
          Format.printf "%-14s %8s %9s %8s %10s %10s@." "tenant" "admitted"
            "completed" "degraded" "mean-ect" "p99-ect";
          let fopt = function
            | None -> "-"
            | Some v -> Printf.sprintf "%.3f" v
          in
          List.iter
            (fun (v : Obs.Fairness.tenant_view) ->
              Format.printf "%-14s %8d %9d %8d %10s %10s@."
                v.Obs.Fairness.v_tenant v.Obs.Fairness.v_admitted
                v.Obs.Fairness.v_completed
                v.Obs.Fairness.v_degraded
                (fopt v.Obs.Fairness.v_mean_ect_s)
                (fopt v.Obs.Fairness.v_p99_ect_s))
            views;
          (match Obs.Fairness.jain_index f with
          | None -> Format.printf "jain index: - (no completions)@."
          | Some j ->
              Format.printf "jain index: %.4f over %d tenant(s)@." j
                (List.length
                   (List.filter
                      (fun v -> v.Obs.Fairness.v_mean_ect_s <> None)
                      views)));
          let overall =
            List.fold_left
              (fun acc (v : Obs.Fairness.tenant_view) ->
                match Obs.Fairness.ect_histogram f v.Obs.Fairness.v_tenant with
                | Some h -> Obs.Histogram.merge acc h
                | None -> acc)
              (Obs.Histogram.create ()) views
          in
          if not (Obs.Histogram.is_empty overall) then
            Format.printf "overall ECT: mean %.3f s, p99 %.3f s, p999 %.3f s \
                           (%d completion(s))@."
              (Obs.Histogram.mean overall)
              (Obs.Histogram.p99 overall)
              (Obs.Histogram.p999 overall)
              (Obs.Histogram.count overall)
    end
  in
  Cmd.v
    (Cmd.info "telemetry"
       ~doc:
         "Validate a serve metrics directory (OpenMetrics exposition file) \
          and summarise its lifecycle record log into a per-tenant \
          fairness table")
    Term.(const run $ telemetry_dir_arg)

(* ------------------------------------------------------------------ *)
(* Offline watchdog evaluation over a recorded metrics directory.      *)

let watch_dir_arg =
  let doc =
    "Metrics directory recorded by $(b,serve --metrics-dir --watch): it \
     must hold the watch.jsonl observation journal."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc)

let watch_out_arg =
  let doc = "Write alerts.json and health.json into $(docv) (default DIR)." in
  Arg.(value & opt (some string) None & info [ "o"; "out-dir" ] ~docv:"DIR" ~doc)

let watch_cmd =
  let run dir out_dir =
    let watch_jsonl = Filename.concat dir "watch.jsonl" in
    let alerts_jsonl = Filename.concat dir "alerts.jsonl" in
    let fail fmt =
      Format.kasprintf
        (fun m ->
          Format.eprintf "watch: %s@." m;
          exit 2)
        fmt
    in
    if not (Sys.file_exists watch_jsonl) then
      fail "%s not found (serve with --metrics-dir and --watch)" watch_jsonl;
    let w =
      match Obs.Watch.read_journal watch_jsonl with
      | Error m -> fail "%s" m
      | Ok j ->
          tolerate_torn_tail ~what:"watch" ~code:2 watch_jsonl
            j.Obs.Watch.j_corrupt;
          let w = Obs.Watch.create Obs.Watch.default_config in
          List.iter (Obs.Watch.ingest w) j.Obs.Watch.j_obs;
          Format.printf "watch: re-evaluated %d journaled tick(s) from %s@."
            (List.length j.Obs.Watch.j_obs)
            watch_jsonl;
          w
    in
    let out = Option.value out_dir ~default:dir in
    Obs.Store.mkdir_p out;
    write_json (Filename.concat out "alerts.json") (Obs.Watch.alerts_json w);
    write_json (Filename.concat out "health.json") (Obs.Watch.health_json w);
    Format.printf
      "watch: %d alert(s) (%d critical), global health %s, digest %s@."
      (Obs.Watch.alert_total w)
      (Obs.Watch.critical_total w)
      (Obs.Health.state_name (Obs.Watch.global_state w))
      (Obs.Watch.alert_digest w);
    Format.printf "watch: wrote %s and %s@."
      (Filename.concat out "alerts.json")
      (Filename.concat out "health.json");
    (* Differential check against the live run's alert journal: the
       offline re-evaluation must reproduce it bit for bit. *)
    if Sys.file_exists alerts_jsonl then begin
      match Obs.Watch.read_alerts_digest alerts_jsonl with
      | Error m -> fail "%s" m
      | Ok (live_digest, records, corrupt) ->
          tolerate_torn_tail ~what:"watch" ~code:2 alerts_jsonl corrupt;
          if live_digest <> Obs.Watch.alert_digest w then begin
            Format.eprintf
              "watch: digest mismatch: live journal %s (%d record(s)) vs \
               offline %s@."
              live_digest records
              (Obs.Watch.alert_digest w);
            exit 3
          end;
          Format.printf "watch: digest matches live journal (%d record(s))@."
            records
    end;
    if Obs.Watch.critical_total w > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:
         "Evaluate the watchdog detectors offline over a recorded metrics \
          directory, write alerts.json/health.json, diff the alert digest \
          against the live journal, and exit non-zero when Critical alerts \
          are present"
       ~man:
         [
           `P
             "Exit status: 0 = healthy, 1 = Critical alerts present, 2 = \
              no watch.jsonl or unreadable input, 3 = offline digest \
              diverges from the live alert journal.";
         ])
    Term.(const run $ watch_dir_arg $ watch_out_arg)

let all_cmd =
  let run seeds alpha trace counters =
    with_obs ~trace ~counters (fun () ->
        Nu_expt.Fig2.run ();
        Nu_expt.Fig3.run ();
        Nu_expt.Fig1.run ();
        Nu_expt.Fig4.run ~seeds ();
        Nu_expt.Fig5.run ~seeds ();
        (* Fig. 6 and Fig. 8 read the same runs: sweep once. *)
        let sweep = Nu_expt.Fig6.sweep ~seeds ~alpha () in
        Nu_expt.Fig6.print (Nu_expt.Fig6.of_sweep sweep);
        Nu_expt.Fig7.run ~seeds ~alpha ();
        Nu_expt.Fig8.print (Nu_expt.Fig8.of_sweep sweep);
        Nu_expt.Fig9.run ~alpha ();
        Nu_expt.Mixed_issues.run ~alpha ();
        Nu_expt.Arrival_study.run ~alpha ();
        Nu_expt.Ablation.run_all ())
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Regenerate every figure and the ablations")
    Term.(const run $ seeds_arg $ alpha_arg $ trace_arg $ counters_arg)

let main =
  Cmd.group
    (Cmd.info "experiments" ~version:"1.0.0"
       ~doc:
         "Trace-driven evaluation of event-level network update (ICDCS'17 \
          reproduction)")
    [
      fig1_cmd;
      fig2_cmd;
      fig3_cmd;
      fig4_cmd;
      fig5_cmd;
      fig6_cmd;
      fig7_cmd;
      fig8_cmd;
      fig9_cmd;
      summary_cmd;
      report_cmd;
      profile_cmd;
      mixed_cmd;
      arrivals_cmd;
      ablation_cmd;
      chaos_cmd;
      serve_cmd;
      snapshot_cmd;
      replay_cmd;
      crashstorm_cmd;
      telemetry_cmd;
      watch_cmd;
      all_cmd;
    ]

let () = exit (Cmd.eval main)
