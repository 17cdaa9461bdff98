(* nu_watch: deterministic streaming watchdog — see watch.mli.

   Layout of the journal directory (both Store record logs, one JSON
   object per record):
     watch.jsonl   header {"nu_watch":1} then one obs object per tick,
                   appended as ticks close (a header that still carries
                   a "config" object loads; the object is ignored)
     alerts.jsonl  one alert object per record, appended as emitted

   Resume contract: the first ingest of a run at tick K > 0 replays the
   journaled observations below K through the normal ingest path into
   freshly truncated journals, so the on-disk files and the running
   digest end up exactly as an uninterrupted run's would. *)

type severity = Info | Warning | Critical

type config = { dir : string option }

let default_config = { dir = None }

(* The fixed detector bank, documented in watch.mli. *)
let window = 20
let slope_window = 20
let max_backlog_slope = 0.5
let jain_min = 0.6
let jain_windows = 2
let max_corrupt_per_window = 0
let max_restarts_per_window = 0
let ring_capacity = 512

type alert = {
  a_tick : int;
  a_scope : string;
  a_detector : string;
  a_severity : severity;
  a_state : Health.state;
  a_evidence : Json.t;
}

type obs = {
  o_tick : int;
  o_queue : int;
  o_backlog : int;
  o_ects : (string * float) list;
  o_corrupt_d : int;
  o_restarts_d : int;
}

let severity_name = function
  | Info -> "info"
  | Warning -> "warning"
  | Critical -> "critical"

(* Per-tenant detector scope. *)
type tstate = {
  mutable t_cur : Histogram.t;
  mutable t_prev : Histogram.t;
  t_cusum : Detector.Cusum.t;
  t_health : Health.t;
  mutable t_last_detector : string;
  mutable t_timeline : (int * Health.state) list; (* newest-first *)
}

type t = {
  dir : string option;
  mutable pending_rev : (string * float) list; (* live tick accumulation *)
  (* global detectors *)
  mutable g_cur : Histogram.t;
  mutable g_prev : Histogram.t;
  g_ect : Detector.Cusum.t;
  g_queue : Detector.Cusum.t;
  g_slope : Detector.Slope.t;
  g_corrupt : Detector.Rate.t;
  g_restarts : Detector.Rate.t;
  mutable tick_in_window : int;
  mutable jain_run : int; (* consecutive collapsed windows *)
  mutable jain_firing : bool; (* level, held between rotations *)
  mutable last_jain : float option;
  g_health : Health.t;
  mutable g_timeline : (int * Health.state) list; (* newest-first *)
  mutable g_last_detector : string;
  tenants : (string, tstate) Hashtbl.t;
  (* alerts *)
  ring : alert Queue.t;
  mutable alert_total : int;
  mutable critical_total : int;
  mutable dropped : int;
  mutable digest : int64;
  by_detector : (string, int) Hashtbl.t;
  by_severity : (string, int) Hashtbl.t;
  mutable first_breach : int option;
  mutable last_breach : int option;
  (* journaling *)
  mutable started : bool;
  mutable obs_log : Store.writer option;
  mutable alert_log : Store.writer option;
}

let create (cfg : config) =
  let sub_buckets = 64 in
  {
    dir = cfg.dir;
    pending_rev = [];
    g_cur = Histogram.create ~sub_buckets ();
    g_prev = Histogram.create ~sub_buckets ();
    g_ect = Detector.Cusum.create ();
    g_queue = Detector.Cusum.create ();
    g_slope = Detector.Slope.create ~window:slope_window;
    g_corrupt = Detector.Rate.create ~window;
    g_restarts = Detector.Rate.create ~window;
    tick_in_window = 0;
    jain_run = 0;
    jain_firing = false;
    last_jain = None;
    g_health = Health.create ();
    g_timeline = [];
    g_last_detector = "none";
    tenants = Hashtbl.create 16;
    ring = Queue.create ();
    alert_total = 0;
    critical_total = 0;
    dropped = 0;
    digest = Fnv.basis;
    by_detector = Hashtbl.create 8;
    by_severity = Hashtbl.create 4;
    first_breach = None;
    last_breach = None;
    started = false;
    obs_log = None;
    alert_log = None;
  }

(* ------------------------------------------------------------------ *)
(* JSON codecs *)

let pairs_of_counts tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let alert_to_json a =
  Json.Obj
    [
      ("tick", Json.Int a.a_tick);
      ("scope", Json.String a.a_scope);
      ("detector", Json.String a.a_detector);
      ("severity", Json.String (severity_name a.a_severity));
      ("state", Json.String (Health.state_name a.a_state));
      ("evidence", a.a_evidence);
    ]

let obs_to_json o =
  Json.Obj
    [
      ("tick", Json.Int o.o_tick);
      ("queue", Json.Int o.o_queue);
      ("backlog", Json.Int o.o_backlog);
      ("corrupt", Json.Int o.o_corrupt_d);
      ("restarts", Json.Int o.o_restarts_d);
      ( "ects",
        Json.List
          (List.map
             (fun (tn, v) -> Json.List [ Json.String tn; Json.Float v ])
             o.o_ects) );
    ]

let obs_of_json j =
  let ( let* ) = Result.bind in
  let int k =
    match Json.member k j with
    | Some (Json.Int i) -> Ok i
    | _ -> Error (Printf.sprintf "watch obs: missing int %S" k)
  in
  let* o_tick = int "tick" in
  let* o_queue = int "queue" in
  let* o_backlog = int "backlog" in
  let* o_corrupt_d = int "corrupt" in
  let* o_restarts_d = int "restarts" in
  let* o_ects =
    match Json.member "ects" j with
    | Some (Json.List l) ->
        List.fold_left
          (fun acc e ->
            let* acc = acc in
            match e with
            | Json.List [ Json.String tn; Json.Float v ] -> Ok ((tn, v) :: acc)
            | Json.List [ Json.String tn; Json.Int v ] ->
                Ok ((tn, float_of_int v) :: acc)
            | _ -> Error "watch obs: malformed ects pair")
          (Ok []) l
        |> Result.map List.rev
    | _ -> Error "watch obs: missing list \"ects\""
  in
  Ok { o_tick; o_queue; o_backlog; o_ects; o_corrupt_d; o_restarts_d }

(* ------------------------------------------------------------------ *)
(* Journaling *)

let obs_path dir = Filename.concat dir "watch.jsonl"
let alerts_path dir = Filename.concat dir "alerts.jsonl"

(* One record per observation or alert, flushed as it happens. *)
let record log payload =
  Store.append log payload;
  Store.flush log

let open_fresh t dir =
  Store.mkdir_p dir;
  let obs_log = Store.open_writer (obs_path dir) in
  record obs_log (Json.to_string (Json.Obj [ ("nu_watch", Json.Int 1) ]));
  t.obs_log <- Some obs_log;
  t.alert_log <- Some (Store.open_writer (alerts_path dir))

let close t =
  Option.iter Store.close t.obs_log;
  Option.iter Store.close t.alert_log;
  t.obs_log <- None;
  t.alert_log <- None

(* ------------------------------------------------------------------ *)
(* Alert emission *)

let bump tbl k =
  Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let emit t a =
  let line = Json.to_string (alert_to_json a) in
  t.digest <- Fnv.string (Fnv.string t.digest line) "\n";
  t.alert_total <- t.alert_total + 1;
  if a.a_severity = Critical then t.critical_total <- t.critical_total + 1;
  bump t.by_detector a.a_detector;
  bump t.by_severity (severity_name a.a_severity);
  (match a.a_severity with
  | Warning | Critical ->
      if t.first_breach = None then t.first_breach <- Some a.a_tick;
      t.last_breach <- Some a.a_tick
  | Info -> ());
  Queue.push a t.ring;
  if Queue.length t.ring > ring_capacity then begin
    ignore (Queue.pop t.ring);
    t.dropped <- t.dropped + 1
  end;
  Option.iter (fun log -> record log line) t.alert_log

let severity_of_entry = function
  | Health.Warn -> Warning
  | Health.Critical -> Critical
  | Health.Ok | Health.Recovering -> Info

(* ------------------------------------------------------------------ *)
(* Evaluation *)

let sorted_tenants t =
  Hashtbl.fold (fun name ts acc -> (name, ts) :: acc) t.tenants []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let tenant_state t name =
  match Hashtbl.find_opt t.tenants name with
  | Some ts -> ts
  | None ->
      let sub_buckets = 64 in
      let ts =
        {
          t_cur = Histogram.create ~sub_buckets ();
          t_prev = Histogram.create ~sub_buckets ();
          t_cusum = Detector.Cusum.create ();
          t_health = Health.create ();
          t_last_detector = "tenant_ect_cusum";
          t_timeline = [];
        }
      in
      Hashtbl.replace t.tenants name ts;
      ts

let rolling_p99 prev cur =
  let h = Histogram.merge prev cur in
  if Histogram.is_empty h then None else Some (Histogram.quantile h 0.99)

let opt_float = function None -> Json.Null | Some f -> Json.Float f

let eval t o =
  (* 1. Fold the tick's completions into the rolling windows. *)
  List.iter
    (fun (tn, v) ->
      if Float.is_finite v && v >= 0.0 then begin
        Histogram.record t.g_cur v;
        Histogram.record (tenant_state t tn).t_cur v
      end)
    o.o_ects;
  (* 2. Global detectors over the pre-rotation windows. *)
  let ect_st =
    match rolling_p99 t.g_prev t.g_cur with
    | Some p -> Detector.Cusum.observe t.g_ect p
    | None -> Detector.Cusum.last t.g_ect
  in
  let queue_st = Detector.Cusum.observe t.g_queue (float_of_int o.o_queue) in
  let slope_v = Detector.Slope.observe t.g_slope (float_of_int o.o_backlog) in
  let slope_firing =
    match slope_v with Some s -> s > max_backlog_slope | None -> false
  in
  let corrupt_w = Detector.Rate.observe t.g_corrupt o.o_corrupt_d in
  let corrupt_firing = corrupt_w > max_corrupt_per_window in
  let restarts_w = Detector.Rate.observe t.g_restarts o.o_restarts_d in
  let restarts_firing = restarts_w > max_restarts_per_window in
  (* 3. Per-tenant CUSUM over the pre-rotation windows, sorted order. *)
  let tenant_stats =
    List.map
      (fun (name, ts) ->
        match rolling_p99 ts.t_prev ts.t_cur with
        | Some p -> (name, ts, Some (Detector.Cusum.observe ts.t_cusum p))
        | None -> (name, ts, None))
      (sorted_tenants t)
  in
  (* 4. Fairness window: evaluate and rotate every window-th tick. *)
  t.tick_in_window <- t.tick_in_window + 1;
  if t.tick_in_window >= window then begin
    let means =
      List.filter_map
        (fun (_, ts, _) ->
          if Histogram.is_empty ts.t_cur then None
          else Some (Histogram.mean ts.t_cur))
        tenant_stats
    in
    (match if List.length means >= 2 then Fairness.jain means else None with
    | Some j ->
        t.last_jain <- Some j;
        if j < jain_min then t.jain_run <- t.jain_run + 1
        else t.jain_run <- 0
    | None -> t.jain_run <- 0);
    t.jain_firing <- t.jain_run >= jain_windows;
    t.g_prev <- t.g_cur;
    t.g_cur <- Histogram.create ~sub_buckets:64 ();
    List.iter
      (fun (_, ts, _) ->
        ts.t_prev <- ts.t_cur;
        ts.t_cur <- Histogram.create ~sub_buckets:64 ())
      tenant_stats;
    t.tick_in_window <- 0
  end;
  (* 5. Change-point Info alerts on CUSUM rising edges. *)
  let evidence extra =
    Json.Obj
      ([
         ("queue", Json.Int o.o_queue);
         ("backlog", Json.Int o.o_backlog);
         ("jain", opt_float t.last_jain);
         ("corrupt_w", Json.Int corrupt_w);
         ("restarts_w", Json.Int restarts_w);
       ]
      @ extra)
  in
  let cusum_evidence (st : Detector.Cusum.status) =
    [
      ("score", Json.Float st.score);
      ("mean", Json.Float st.mean);
      ("sigma", Json.Float st.sigma);
    ]
  in
  let edge name (st : Detector.Cusum.status) scope state =
    if st.changed then
      emit t
        {
          a_tick = o.o_tick;
          a_scope = scope;
          a_detector = name;
          a_severity = Info;
          a_state = state;
          a_evidence = evidence (cusum_evidence st);
        }
  in
  edge "ect_cusum" ect_st "global" (Health.state t.g_health);
  edge "queue_cusum" queue_st "global" (Health.state t.g_health);
  List.iter
    (fun (name, ts, st) ->
      match st with
      | Some st -> edge "tenant_ect_cusum" st name (Health.state ts.t_health)
      | None -> ())
    tenant_stats;
  (* 6. Global health. *)
  let firing_by_detector =
    [
      ("ect_cusum", ect_st.Detector.Cusum.firing);
      ("queue_cusum", queue_st.Detector.Cusum.firing);
      ("backlog_slope", slope_firing);
      ("jain_collapse", t.jain_firing);
      ("wal_corrupt", corrupt_firing);
      ("supervisor_restarts", restarts_firing);
    ]
  in
  let g_firing = List.exists snd firing_by_detector in
  (match List.find_opt snd firing_by_detector with
  | Some (name, _) -> t.g_last_detector <- name
  | None -> ());
  (match Health.observe t.g_health ~firing:g_firing with
  | Some st ->
      t.g_timeline <- (o.o_tick, st) :: t.g_timeline;
      emit t
        {
          a_tick = o.o_tick;
          a_scope = "global";
          a_detector = t.g_last_detector;
          a_severity = severity_of_entry st;
          a_state = st;
          a_evidence =
            evidence
              [
                ("p99_ect_s", opt_float (rolling_p99 t.g_prev t.g_cur));
                ("ect_score", Json.Float ect_st.Detector.Cusum.score);
                ("queue_score", Json.Float queue_st.Detector.Cusum.score);
                ("slope", opt_float slope_v);
              ];
        }
  | None -> ());
  (* 7. Per-tenant health, sorted order. *)
  List.iter
    (fun (name, ts, st) ->
      let firing =
        match st with
        | Some st -> st.Detector.Cusum.firing
        | None -> false
      in
      match Health.observe ts.t_health ~firing with
      | Some hs ->
          ts.t_timeline <- (o.o_tick, hs) :: ts.t_timeline;
          let extra =
            match st with Some st -> cusum_evidence st | None -> []
          in
          emit t
            {
              a_tick = o.o_tick;
              a_scope = name;
              a_detector = ts.t_last_detector;
              a_severity = severity_of_entry hs;
              a_state = hs;
              a_evidence = evidence extra;
            }
      | None -> ())
    tenant_stats

(* ------------------------------------------------------------------ *)
(* Journal reading: Store's damage rule *)

type journal = { j_obs : obs list; j_corrupt : Store.corrupt_frame list }

(* A record is the header ([None]; any other members it carries are
   ignored) or one observation; one that is neither is a corrupt
   frame. *)
let decode_record payload =
  let ( let* ) = Result.bind in
  let* j = Json.of_string payload in
  match Json.member "nu_watch" j with
  | Some _ -> Ok None
  | None -> Result.map Option.some (obs_of_json j)

let read_journal path =
  Result.map
    (fun r ->
      {
        j_obs = List.filter_map Fun.id r.Store.entries;
        j_corrupt = r.Store.corrupt;
      })
    (Store.read_report ~decode:decode_record path)

let read_alerts_digest path =
  let ( let* ) = Result.bind in
  let* r =
    Store.read_report
      ~decode:(fun p -> Result.map (fun _ -> p) (Json.of_string p))
      path
  in
  let digest =
    List.fold_left
      (fun acc line -> Fnv.string (Fnv.string acc line) "\n")
      Fnv.basis r.Store.entries
  in
  Ok (Fnv.hex digest, r.Store.frames, r.Store.corrupt)

(* ------------------------------------------------------------------ *)
(* Ingest (with resume-from-journal) *)

let journal_obs t o =
  Option.iter (fun log -> record log (Json.to_string (obs_to_json o))) t.obs_log

let ingest_started t o =
  journal_obs t o;
  eval t o

let ingest t o =
  if not t.started then begin
    t.started <- true;
    match t.dir with
    | Some dir when o.o_tick > 0 && Sys.file_exists (obs_path dir) ->
        (* Restore-and-replay run: rebuild detector state from the
           journaled prefix below the resume tick, re-journaling it
           into freshly truncated files so the on-disk artifacts and
           the alert digest match an uninterrupted run's. *)
        let prefix =
          match read_journal (obs_path dir) with
          | Ok j -> List.filter (fun p -> p.o_tick < o.o_tick) j.j_obs
          | Error _ -> []
        in
        open_fresh t dir;
        List.iter (ingest_started t) prefix
    | Some dir -> open_fresh t dir
    | None -> ()
  end;
  ingest_started t o

let observe_ect t ~tenant ~ect_s = t.pending_rev <- (tenant, ect_s) :: t.pending_rev

let on_tick t ~tick ~queue ~backlog ~corrupt_d ~restarts_d =
  let ects = List.rev t.pending_rev in
  t.pending_rev <- [];
  ingest t
    {
      o_tick = tick;
      o_queue = queue;
      o_backlog = backlog;
      o_ects = ects;
      o_corrupt_d = corrupt_d;
      o_restarts_d = restarts_d;
    }

(* ------------------------------------------------------------------ *)
(* Readouts *)

let alerts t = List.of_seq (Queue.to_seq t.ring)
let alert_total t = t.alert_total
let critical_total t = t.critical_total
let dropped t = t.dropped
let alert_digest t = Fnv.hex t.digest
let by_detector t = pairs_of_counts t.by_detector
let by_severity t = pairs_of_counts t.by_severity
let global_state t = Health.state t.g_health

let tenant_states t =
  List.map (fun (name, ts) -> (name, Health.state ts.t_health)) (sorted_tenants t)

(* ------------------------------------------------------------------ *)
(* Rendering *)

let timeline_json tl =
  Json.List
    (List.rev_map
       (fun (tick, st) ->
         Json.List [ Json.Int tick; Json.String (Health.state_name st) ])
       tl)

let counts_json pairs =
  Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) pairs)

let opt_int = function None -> Json.Null | Some i -> Json.Int i

let scope_json state timeline =
  Json.Obj
    [
      ("state", Json.String (Health.state_name state));
      ("timeline", timeline_json timeline);
    ]

let scopes_json t =
  ( ("global", scope_json (Health.state t.g_health) t.g_timeline),
    List.map
      (fun (name, ts) -> (name, scope_json (Health.state ts.t_health) ts.t_timeline))
      (sorted_tenants t) )

let report_json t =
  let global, tenants = scopes_json t in
  Json.Obj
    [
      ("alert_total", Json.Int t.alert_total);
      ("critical_total", Json.Int t.critical_total);
      ("dropped", Json.Int t.dropped);
      ("digest", Json.String (alert_digest t));
      ("by_detector", counts_json (by_detector t));
      ("by_severity", counts_json (by_severity t));
      ("first_breach_tick", opt_int t.first_breach);
      ("last_breach_tick", opt_int t.last_breach);
      ("global", snd global);
      ("tenants", Json.Obj tenants);
    ]

let alerts_json t =
  Json.Obj
    [
      ("schema", Json.Int 1);
      ("digest", Json.String (alert_digest t));
      ("total", Json.Int t.alert_total);
      ("critical_total", Json.Int t.critical_total);
      ("dropped", Json.Int t.dropped);
      ("by_detector", counts_json (by_detector t));
      ("by_severity", counts_json (by_severity t));
      ("alerts", Json.List (List.map alert_to_json (alerts t)));
    ]

let health_json t =
  let global, tenants = scopes_json t in
  Json.Obj
    [
      ("schema", Json.Int 1);
      ("digest", Json.String (alert_digest t));
      ("first_breach_tick", opt_int t.first_breach);
      ("last_breach_tick", opt_int t.last_breach);
      ("global", snd global);
      ("tenants", Json.Obj tenants);
    ]
