(* Live serving telemetry: one object owning the request-lifecycle
   tracker, the per-tenant fairness tracker and the SLO tracker, plus
   the OpenMetrics exposition writer. The controller calls the on_*
   hooks at the matching points of its tick; the engine-side
   observations arrive through [observer] attached to the stepper.
   Everything here is recording-only: no hook reads state the scheduler
   consults, so a run with telemetry attached makes bit-identical
   decisions (the serve-telemetry bench scenario enforces this). *)

module Json = Nu_obs.Json
module Counters = Nu_obs.Counters
module Histogram = Nu_obs.Histogram
module Lifecycle = Nu_obs.Lifecycle
module Fairness = Nu_obs.Fairness
module Slo = Nu_obs.Slo
module Expo = Nu_obs.Expo
module Watch = Nu_obs.Watch

type config = {
  metrics_dir : string option;
  metrics_every : int;
  watch : Watch.config option;
}

let default_config = { metrics_dir = None; metrics_every = 10; watch = None }

type t = {
  cfg : config;
  lifecycle : Lifecycle.t;
  fairness : Fairness.t;
  slo : Slo.t;
  watch : Watch.t option;
  (* Counter baselines so the watcher sees per-tick deltas: the named
     counters are process-global and carry values from earlier runs in
     the same process (tests, crashstorm restarts). *)
  mutable last_corrupt : int;
  mutable last_restarts : int;
  mutable tick : int;
  mutable now_s : float;
  mutable expo_writes : int;
}

let create cfg =
  if cfg.metrics_every < 1 then
    invalid_arg "Telemetry.create: metrics_every must be >= 1";
  (match cfg.metrics_dir with
  | Some "" -> invalid_arg "Telemetry.create: empty metrics_dir"
  | Some _ | None -> ());
  Option.iter Nu_obs.Store.mkdir_p cfg.metrics_dir;
  {
    cfg;
    (* Fairness and SLO windows of 50 ticks: the trackers' own
       defaults. *)
    lifecycle =
      Lifecycle.create
        ?path:
          (Option.map
             (fun dir -> Filename.concat dir "lifecycle.jsonl")
             cfg.metrics_dir)
        ();
    fairness = Fairness.create ();
    slo = Slo.create ();
    watch = Option.map Watch.create cfg.watch;
    last_corrupt = Counters.get_named "store.frames_corrupt";
    last_restarts = Counters.get_named "supervisor.restarts";
    tick = 0;
    now_s = 0.0;
    expo_writes = 0;
  }

let lifecycle t = t.lifecycle
let watch t = t.watch
let expo_writes t = t.expo_writes

(* Fairness attribution for engine-side observations: the lifecycle
   table remembers which tenant an event id belongs to; ids the
   controller never stamped (stepper-only runs) chalk up to a
   catch-all. *)
let tenant_for t id =
  match Lifecycle.tenant_of t.lifecycle id with
  | Some tn when tn <> "" -> tn
  | Some _ | None -> "unknown"

let render t =
  Expo.render ~counters:(Counters.snapshot ())
    ~histograms:
      (if Histogram.Registry.enabled () then Histogram.Registry.snapshot ()
       else [])
    ~fairness:t.fairness ~slo:t.slo ?watch:t.watch ()

let write_expo t =
  match t.cfg.metrics_dir with
  | None -> ()
  | Some dir ->
      Nu_obs.Store.publish (Filename.concat dir "metrics.prom") (render t);
      t.expo_writes <- t.expo_writes + 1;
      Counters.incr_named "telemetry.expo_writes"

(* ------------------------------------------------------------------ *)
(* Controller-side hooks.                                              *)

let on_tick_start t ~tick ~now_s =
  t.tick <- tick;
  t.now_s <- now_s

let stamp t ~id ?tenant stage =
  Lifecycle.stamp t.lifecycle ~id ?tenant ~tick:t.tick ~t_s:t.now_s stage

let on_arrival t req =
  stamp t ~id:(Request.event_id req) ~tenant:req.Request.tenant
    Lifecycle.Arrived

let on_admission t req (outcome : Admission.outcome) =
  let id = Request.event_id req in
  let tenant = req.Request.tenant in
  match outcome with
  | Admission.Admitted ->
      Fairness.observe_admit t.fairness ~tenant;
      stamp t ~id ~tenant Lifecycle.Admitted
  | Admission.Shed reason ->
      Fairness.observe_shed t.fairness ~tenant;
      stamp t ~id ~tenant (Lifecycle.Shed reason)
  | Admission.Deferred -> stamp t ~id ~tenant Lifecycle.Deferred

let on_drain t req ~wait_ticks =
  Fairness.observe_drain t.fairness ~tenant:req.Request.tenant;
  stamp t
    ~id:(Request.event_id req)
    ~tenant:req.Request.tenant
    (Lifecycle.Submitted { wait_ticks })

let on_tick_end t ~tick ~queue ~backlog =
  Slo.observe_gauges t.slo ~queue ~backlog;
  Slo.on_tick t.slo;
  Fairness.on_tick t.fairness;
  (match t.watch with
  | Some w ->
      let corrupt = Counters.get_named "store.frames_corrupt" in
      let restarts = Counters.get_named "supervisor.restarts" in
      Watch.on_tick w ~tick ~queue ~backlog
        ~corrupt_d:(max 0 (corrupt - t.last_corrupt))
        ~restarts_d:(max 0 (restarts - t.last_restarts));
      t.last_corrupt <- corrupt;
      t.last_restarts <- restarts
  | None -> ());
  if t.cfg.metrics_dir <> None && (tick + 1) mod t.cfg.metrics_every = 0 then
    write_expo t

let on_retire t =
  write_expo t;
  Option.iter Watch.close t.watch;
  Lifecycle.close t.lifecycle

(* ------------------------------------------------------------------ *)
(* Engine-side observer.                                               *)

let complete t (r : Engine.event_result) ~degraded =
  let id = r.Engine.event_id in
  let ect_s = Engine.ect r in
  (* Read the attribution before the terminal stamp retires it. *)
  let tenant = tenant_for t id in
  Fairness.observe_completion t.fairness ~tenant ~ect_s ~degraded;
  Slo.observe_ect t.slo ect_s;
  (match t.watch with
  | Some w -> Watch.observe_ect w ~tenant ~ect_s
  | None -> ());
  let stage =
    if degraded then
      Lifecycle.Degraded { ect_s; failed_items = r.Engine.failed_items }
    else Lifecycle.Completed { ect_s }
  in
  Lifecycle.stamp t.lifecycle ~id ~tenant ~tick:t.tick
    ~t_s:r.Engine.completion_s stage

let observer t (obs : Engine.observation) =
  match obs with
  | Engine.Round_executed { round; start_s; executed; co_ids; degraded = _ } ->
      List.iter
        (fun id ->
          Lifecycle.stamp t.lifecycle ~id ~tick:t.tick ~t_s:start_s
            (Lifecycle.Planned { round; co_scheduled = List.mem id co_ids }))
        executed
  | Engine.Round_aborted { round; start_s = _; fault_s; batch } ->
      List.iter
        (fun id ->
          Lifecycle.stamp t.lifecycle ~id ~tick:t.tick ~t_s:fault_s
            (Lifecycle.Aborted { round }))
        batch
  | Engine.Event_retry { event_id; ready_s } ->
      Lifecycle.stamp t.lifecycle ~id:event_id ~tick:t.tick ~t_s:t.now_s
        (Lifecycle.Retry_scheduled { ready_s })
  | Engine.Event_completed { result; degraded } ->
      complete t result ~degraded
  | Engine.Round_escalated { round; start_s; event_id } ->
      (* The event leaves its shard for the global coordinator; the
         completion stamp arrives later from the coordinator's result. *)
      Lifecycle.stamp t.lifecycle ~id:event_id ~tick:t.tick ~t_s:start_s
        (Lifecycle.Planned { round; co_scheduled = false })

let to_json t =
  Json.Obj
    ([
      ("stamped", Json.Int (Lifecycle.stamped t.lifecycle));
      ("in_flight", Json.Int (Lifecycle.in_flight t.lifecycle));
      ("expo_writes", Json.Int t.expo_writes);
      ("fairness", Fairness.to_json t.fairness);
      ("slo", Slo.to_json t.slo);
    ]
    @ match t.watch with
      | Some w -> [ ("watch", Watch.report_json w) ]
      | None -> [])
