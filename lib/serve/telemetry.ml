(* Live serving telemetry: one object owning the request-lifecycle
   tracker, the per-tenant fairness fold and the optional watchdog,
   plus the OpenMetrics exposition writer. The controller calls the on_*
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
    lifecycle =
      Lifecycle.create
        ?path:
          (Option.map
             (fun dir -> Filename.concat dir "lifecycle.jsonl")
             cfg.metrics_dir)
        ();
    fairness = Fairness.create ();
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

let render t =
  Expo.render ~counters:(Counters.snapshot ())
    ~histograms:
      (if Histogram.Registry.enabled () then Histogram.Registry.snapshot ()
       else [])
    ~fairness:t.fairness ?watch:t.watch ()

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

(* Every tenant-bearing stamp goes to the lifecycle log and the fairness
   fold together, so [Fairness.of_log] over the log rebuilds the live
   fairness state. *)
let record t ~id ~tenant ~t_s stage =
  Lifecycle.stamp t.lifecycle ~id ~tenant ~tick:t.tick ~t_s stage;
  Fairness.observe t.fairness ~tenant:(Fairness.attribution tenant) stage

let record_request t req stage =
  record t ~id:(Request.event_id req) ~tenant:req.Request.tenant
    ~t_s:t.now_s stage

let on_arrival t req = record_request t req Lifecycle.Arrived

let on_admission t req (outcome : Admission.outcome) =
  record_request t req
    (match outcome with
    | Admission.Admitted -> Lifecycle.Admitted
    | Admission.Deferred -> Lifecycle.Deferred)

let on_drain t req ~wait_ticks =
  record_request t req (Lifecycle.Submitted { wait_ticks })

let on_tick_end t ~tick ~queue ~backlog =
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
  (* Read the attribution before the terminal stamp retires it; an id
     the controller never stamped (a run restored mid-flight) has
     none. *)
  let tenant =
    Option.value (Lifecycle.tenant_of t.lifecycle id) ~default:""
  in
  (match t.watch with
  | Some w -> Watch.observe_ect w ~tenant:(Fairness.attribution tenant) ~ect_s
  | None -> ());
  record t ~id ~tenant ~t_s:r.Engine.completion_s
    (if degraded then
       Lifecycle.Degraded { ect_s; failed_items = r.Engine.failed_items }
     else Lifecycle.Completed { ect_s })

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
    ]
    @ match t.watch with
      | Some w -> [ ("watch", Watch.report_json w) ]
      | None -> [])
