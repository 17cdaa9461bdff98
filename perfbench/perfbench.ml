(* perfbench: the steady benchmark of the update controller.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
                   [--state-dir DIR] [--storage FS] [--smoke]
                   [--expect-digest HEX] [--record FIRST-LAST]

   One process on one OCaml domain, no helper threads. Every workload is
   a closed loop with one caller: the controller runs in simulated time,
   so the next driving call starts when the previous one returns, and
   throughput is work completed per wall second at the stated size.

   A run is a pass over instances, each generated from its own sub-seed
   of [--seed]: set-up (Fat-Tree, background fill, workload, controller),
   the measured driving calls, then a crash and a recovery whose
   decision digest must equal the uninterrupted run's. The instance
   count follows from [--seconds] alone, so a seed and a length always
   give the same inputs and the simulated metrics (ECT, cost) repeat
   exactly. One instance's figures swing by a tenth or more with its
   inputs, so a run pools many small instances rather than repeating a
   few.

   With [--trace 0] the last stdout line carries the end-to-end metrics.
   With [--trace 1] an untraced pass over half as many instances is
   followed by a traced pass over the same instances, and the line
   carries the per-layer metrics; counts are per run. Any failed output
   check exits 1 before a metric is printed. *)

open Core
module Trace = Obs.Trace
module Counters = Obs.Counters

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("perfbench: FAIL " ^ m);
      exit 1)
    fmt

let ns_to_s ns = Int64.to_float ns *. 1e-9
let secs_since t0 = ns_to_s (Int64.sub (Trace.now_ns ()) t0)

let settle () = Gc.full_major ()

let timed f =
  let t0 = Trace.now_ns () in
  let x = f () in
  (x, secs_since t0)

(* ------------------------------------------------------------------ *)
(* Workloads and their sizes.                                          *)

type kind = Lmtf_churn | Fault_churn | Serve_durable | Shard_churn

let workloads =
  [
    ("lmtf-churn", Lmtf_churn);
    ("fault-churn", Fault_churn);
    ("serve-durable", Serve_durable);
    ("shard-churn", Shard_churn);
  ]

type size = {
  instance_s : float;
      (** Wall seconds one instance takes on the reference machine (a
          2-core x86-64 VM); a run of S seconds has S / instance_s
          instances. *)
  events : int;  (** Stepper workloads: update events per instance. *)
  ticks : int;  (** Serving workloads: journaled ticks per instance. *)
  rate : float;  (** Serving workloads: mean arrivals per tick. *)
  checkpoint_every : int;  (** Serving workloads: ticks per checkpoint. *)
}

let size ~smoke kind =
  match (smoke, kind) with
  | true, (Lmtf_churn | Fault_churn) ->
      { instance_s = infinity; events = 6; ticks = 0; rate = 0.0; checkpoint_every = 0 }
  | true, (Serve_durable | Shard_churn) ->
      { instance_s = infinity; events = 0; ticks = 24; rate = 1.0; checkpoint_every = 8 }
  | false, Lmtf_churn ->
      { instance_s = 1.5; events = 80; ticks = 0; rate = 0.0; checkpoint_every = 0 }
  | false, Fault_churn ->
      { instance_s = 5.2; events = 60; ticks = 0; rate = 0.0; checkpoint_every = 0 }
  | false, Serve_durable ->
      { instance_s = 5.1; events = 0; ticks = 160; rate = 3.0; checkpoint_every = 60 }
  | false, Shard_churn ->
      { instance_s = 3.1; events = 0; ticks = 200; rate = 6.0; checkpoint_every = 70 }

(* The instance count is a function of the run length alone, so a seed
   and a length always give the same inputs, however fast the machine. *)
let instances size ~seconds =
  max 1 (Float.to_int (Float.round (seconds /. size.instance_s)))

(* Instance [i] of seed [n]. Distinct for distinct (n, i) while i < 1000. *)
let sub_seed seed i = (seed * 1000) + i
let policy = Policy.Lmtf { alpha = 4 }

(* Background churn keyed by flow id (Serve's generator), so a frozen
   stepper thaws into the same churn stream on every workload. *)
let churn_spec sub =
  {
    Serve.churn_seed = sub + 1;
    churn_target = 0.70;
    churn_max_per_round = 200;
    churn_first_id = 10_000_000;
  }

let fault_config =
  {
    Fault_model.default_config with
    Fault_model.rate_per_s = 1.0;
    horizon_s = 16.0;
    repair_s = 2.0;
  }

let serve_config sub =
  {
    (Serve.default_config policy) with
    Serve.engine_seed = sub + 4;
    admission_policy = Admission.Block;
    churn = Some (churn_spec sub);
    domains = 1;
  }

let source_spec size sub =
  Serve_source.Synthetic
    {
      seed = sub + 3;
      rate_per_tick = size.rate;
      flows_per_event = 3;
      tenants = [ "t0"; "t1"; "t2"; "t3" ];
      first_event_id = 1;
      first_flow_id = 1_000_000;
    }

(* The crash strikes three quarters in, between two checkpoints, so the
   recovery restores one and replays the journal past it. *)
let crash_tick size =
  let c = 3 * size.ticks / 4 in
  if c mod size.checkpoint_every = 0 then c + (size.checkpoint_every / 2) else c

(* ------------------------------------------------------------------ *)
(* Statistics.                                                         *)

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs
let sumi f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean xs =
  match xs with [] -> 0.0 | _ -> sum Fun.id xs /. float_of_int (List.length xs)

(* The highest percentile (to 0.1) that keeps at least ten of every
   [per] samples beyond it; the median below twenty. *)
let tail_percentile ~per =
  if per < 20 then 50.0
  else Float.of_int (1000 * (per - 10) / per) /. 10.0

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ------------------------------------------------------------------ *)
(* Files of the durable workloads (outside every timed region).        *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let reset_dir d =
  mkdir_p d;
  Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d)

let file_size path =
  if Sys.file_exists path then In_channel.with_open_bin path In_channel.length
  else 0L

(* The crash image: every durable file as it stood after the crash tick. *)
let copy_dir src dst =
  Array.iter
    (fun f ->
      let data =
        In_channel.with_open_bin (Filename.concat src f) In_channel.input_all
      in
      Out_channel.with_open_bin (Filename.concat dst f) (fun oc ->
          Out_channel.output_string oc data))
    (Sys.readdir src)

let journal_bytes base =
  let rec go i acc =
    let p = Journal.segment_path base i in
    if Sys.file_exists p then go (i + 1) (Int64.add acc (file_size p)) else acc
  in
  Int64.to_int (go 0 0L)

(* WAL read-back: every frame written decodes, none is corrupt. *)
let check_wal ~what path ~frames =
  match Journal.read_report path with
  | Error m -> fail "%s: WAL read-back: %s" what m
  | Ok r ->
      if r.Journal.corrupt <> [] then
        fail "%s: WAL read-back reported %d corrupt frame(s)" what
          (List.length r.Journal.corrupt);
      Option.iter
        (fun n ->
          if r.Journal.frames <> n then
            fail "%s: WAL read-back found %d of %d frames" what r.Journal.frames
              n)
        frames

let check_invariants ~what net =
  match Invariant.check net with
  | [] -> ()
  | v :: _ as vs ->
      fail "%s: final Invariant.check found %d violation(s), first %s: %s" what
        (List.length vs) v.Invariant.name v.Invariant.detail

let check_recovered ~what ~expected got =
  if got <> expected then
    fail "%s: recovered digest %s differs from the uninterrupted run's %s" what
      got expected

(* ------------------------------------------------------------------ *)
(* Measurement of one instance.                                        *)

type inst = {
  digest : string;  (** Uninterrupted run. *)
  prepare_s : float;
  controller_s : float;
  samples : float list;  (** Driving-call wall times, ms. *)
  measured_s : float;  (** Driving calls plus the final drain. *)
  alloc_bytes : float;
  events : int;  (** Completed. *)
  ects : float list;
  cost_mbit : float;
  attempted : int;
  failed : int;
  recover_s : float;
  counters : Counters.snapshot;  (** Over the measured phase. *)
  calls : int;
  busy_calls : int;  (** Driving calls that ran at least one round. *)
  checkpoint_bytes : int;
  wal_bytes : int;
  inv_ms : float list;  (** Bench-timed read-only Invariant.check. *)
  events_trace : Trace.event list;  (** Traced pass only. *)
}

type meter = {
  traced : bool;
  mutable samples : float list;
  mutable wall : float;
  mutable alloc : float;
  mutable calls : int;
  mutable busy : int;
  mutable inv_ms : float list;
  mutable recorded : Trace.event list list;
  mutable recording : (unit -> Trace.event list) option;
}

let meter traced =
  {
    traced;
    samples = [];
    wall = 0.0;
    alloc = 0.0;
    calls = 0;
    busy = 0;
    inv_ms = [];
    recorded = [];
    recording = None;
  }

(* The traced pass records set-up, the measured phase and the recovery
   calls into a memory sink, but not the bench's own verification work
   (the recovered run's continuation), which would pollute per-round
   figures. *)
let trace_on m =
  if m.traced then begin
    let sink, events = Trace.memory () in
    Trace.install sink;
    m.recording <- Some events
  end

let trace_off m =
  match m.recording with
  | Some events ->
      Trace.uninstall ();
      m.recorded <- events () :: m.recorded;
      m.recording <- None
  | None -> ()

let trace_events m = List.concat (List.rev m.recorded)

(* One driving call: monotonic wall time and bytes allocated. *)
let drive ?(sample = true) m f =
  let rounds0 = Counters.get Counters.Engine_rounds in
  let a0 = Gc.allocated_bytes () in
  let t0 = Trace.now_ns () in
  f ();
  let dt = secs_since t0 in
  m.alloc <- m.alloc +. (Gc.allocated_bytes () -. a0);
  m.wall <- m.wall +. dt;
  if sample then begin
    m.samples <- (dt *. 1e3) :: m.samples;
    m.calls <- m.calls + 1;
    if Counters.get Counters.Engine_rounds > rounds0 then m.busy <- m.busy + 1
  end

(* Traced pass only: time a read-only Invariant.check of the live net
   every [probe_every] calls, outside every driving call. *)
let probe_every = 8

let probe_invariants m net =
  if m.traced && m.calls mod probe_every = 0 then begin
    let _, dt =
      timed (fun () ->
          Trace.with_span "invariant_check" (fun () -> Invariant.check net))
    in
    m.inv_ms <- (dt *. 1e3) :: m.inv_ms
  end

(* Each instance starts from a collected heap, so its timed set-up does
   not pay for the previous instance's garbage. *)
let prepare sub =
  settle ();
  timed (fun () ->
      Trace.with_span "setup.prepare" (fun () ->
          Scenario.prepare ~k:8 ~utilization:0.70 ~seed:sub
            ~background:Scenario.Benson ()))

let finish_inst m ~digest ~prepare_s ~controller_s ~(results : Engine.event_result list)
    ~attempted ~failed ~recover_s ~counters ~checkpoint_bytes
    ~wal_bytes =
  {
    digest;
    prepare_s;
    controller_s;
    samples = m.samples;
    measured_s = m.wall;
    alloc_bytes = m.alloc;
    events = List.length results;
    ects = List.map Engine.ect results;
    cost_mbit =
      List.fold_left (fun acc r -> acc +. r.Engine.cost_mbit) 0.0 results;
    attempted;
    failed;
    recover_s;
    counters;
    calls = m.calls;
    busy_calls = m.busy;
    checkpoint_bytes;
    wal_bytes;
    inv_ms = m.inv_ms;
    events_trace = trace_events m;
  }

let failed_items results =
  List.length (List.filter (fun r -> r.Engine.failed_items > 0) results)

let thaws = 3

(* lmtf-churn and fault-churn: events submitted to one Engine.Stepper and
   stepped to idle. The crash is in memory: the stepper, net and injector
   are frozen once seven eighths of the events have completed, and
   recovery thaws them and must finish with the uninterrupted digest. *)
let stepper_instance ~faults (size : size) m sub =
  trace_on m;
  let sc, prepare_s = prepare sub in
  let host_count = sc.Scenario.host_count in
  let churn () = Serve.engine_churn ~host_count (Some (churn_spec sub)) in
  let retry = Retry_policy.default in
  let failed = ref 0 and completed = ref 0 in
  let observer = function
    | Engine.Event_completed { result; degraded } ->
        incr completed;
        if degraded || result.Engine.failed_items > 0 then incr failed
    | _ -> ()
  in
  let (st, injector), controller_s =
    timed (fun () ->
        Trace.with_span "setup.controller" (fun () ->
            let events =
              Scenario.events ~shape:Event_gen.Synchronous sc ~n:size.events
            in
            let injector =
              if faults then
                Some
                  (Injector.create ~retry
                     (Fault_model.generate ~config:fault_config ~seed:(sub + 2)
                        sc.Scenario.topology))
              else None
            in
            ( Engine.Stepper.create ~seed:(sub + 4) ~domains:1 ?churn:(churn ())
                ?injector ~observer ~events ~net:sc.Scenario.net policy,
              injector )))
  in
  settle ();
  let before = Counters.snapshot () in
  let crash_at = 7 * size.events / 8 in
  let frozen = ref None in
  while Engine.Stepper.has_work st do
    drive m (fun () ->
        Trace.with_span "step" (fun () -> ignore (Engine.Stepper.step st)));
    probe_invariants m sc.Scenario.net;
    if !frozen = None && !completed >= crash_at then
      frozen :=
        Some
          ( Net_state.freeze sc.Scenario.net,
            Engine.Stepper.freeze st,
            Option.map Injector.freeze injector )
  done;
  let counters = Counters.diff ~before ~after:(Counters.snapshot ()) in
  trace_off m;
  let what = if faults then "fault-churn" else "lmtf-churn" in
  let result = Engine.Stepper.result st in
  let digest = Run_digest.of_run result in
  check_invariants ~what sc.Scenario.net;
  let fz_net, fz_stepper, fz_injector =
    match !frozen with
    | Some f -> f
    | None -> fail "%s: fewer than %d events completed, no crash point" what crash_at
  in
  (* A thaw takes tens of milliseconds: the median of [thaws] of them
     from a collected heap; the last one runs on. *)
  settle ();
  let thaw () =
    timed (fun () ->
        let net = Net_state.thaw sc.Scenario.topology fz_net in
        let injector = Option.map (Injector.thaw ~retry) fz_injector in
        Engine.Stepper.thaw ?churn:(churn ()) ?injector ~domains:1 ~net
          fz_stepper)
  in
  let runs = List.init thaws (fun _ -> thaw ()) in
  let recovered = fst (List.nth runs (thaws - 1)) in
  let recover_s = median (List.map snd runs) in
  while Engine.Stepper.has_work recovered do
    ignore (Engine.Stepper.step recovered)
  done;
  check_recovered ~what ~expected:digest
    (Run_digest.of_run (Engine.Stepper.result recovered));
  finish_inst m ~digest ~prepare_s ~controller_s
    ~results:(Array.to_list result.Engine.events)
    ~attempted:size.events ~failed:!failed ~recover_s ~counters
    ~checkpoint_bytes:0 ~wal_bytes:0

(* serve-durable: Serve over the synthetic Poisson source with Block
   admission, a WAL, a checkpoint chain and in-memory telemetry + watch.
   At the crash tick the durable files are copied aside and the live
   controller runs on uninterrupted; recovery restores the copy's
   newest checkpoint and replays its journal to the crash tick, then
   serves the remaining ticks and must reach the uninterrupted digest. *)
let serve_instance (size : size) m ~dir sub =
  let live = Filename.concat dir "live" and crash = Filename.concat dir "crash" in
  reset_dir live;
  reset_dir crash;
  trace_on m;
  let sc, prepare_s = prepare sub in
  let topology = sc.Scenario.topology in
  let config = serve_config sub and source_spec = source_spec size sub in
  let wal = Filename.concat live "wal" and cp = Filename.concat live "cp" in
  let (t, writer), controller_s =
    timed (fun () ->
        Trace.with_span "setup.controller" (fun () ->
            let telemetry =
              Serve_telemetry.create
                {
                  Serve_telemetry.default_config with
                  Serve_telemetry.watch = Some Obs.Watch.default_config;
                }
            in
            let writer = Journal.open_writer wal in
            ( Serve.create ~telemetry ~journal:writer config ~topology
                ~net:sc.Scenario.net ~source_spec,
              writer )))
  in
  settle ();
  let before = Counters.snapshot () in
  let crash_at = crash_tick size in
  for tick = 1 to size.ticks do
    drive m (fun () ->
        Trace.with_span "tick" (fun () -> Serve.tick t);
        if tick mod size.checkpoint_every = 0 then
          Trace.with_span "checkpoint" (fun () ->
              ignore (Serve.save_checkpoint t cp : string)));
    probe_invariants m sc.Scenario.net;
    if tick = crash_at then copy_dir live crash
  done;
  drive ~sample:false m (fun () ->
      Trace.with_span "complete" (fun () -> Serve.complete t));
  let counters = Counters.diff ~before ~after:(Counters.snapshot ()) in
  trace_off m;
  let what = "serve-durable" in
  let results = Array.to_list (Serve.result t).Engine.events in
  let digest = Serve.digest t in
  let checkpoint_bytes = Int64.to_int (file_size cp) in
  let wal_bytes = journal_bytes wal in
  ignore (Serve.retire t : Engine.run_result);
  check_invariants ~what sc.Scenario.net;
  check_wal ~what wal ~frames:(Some (Journal.entries_written writer));
  check_wal ~what (Filename.concat crash "wal") ~frames:None;
  trace_on m;
  let restored, restore_s =
    timed (fun () ->
        Trace.with_span "restore" (fun () ->
            Serve.restore ~config ~source_spec ~topology
              (Filename.concat crash "cp")))
  in
  let r =
    match restored with Ok r -> r | Error e -> fail "%s: restore: %s" what e
  in
  let replayed, replay_s =
    timed (fun () ->
        Trace.with_span "replay" (fun () ->
            Serve.replay ~journal:(Filename.concat crash "wal") r))
  in
  trace_off m;
  (match replayed with
  | Ok _ -> ()
  | Error e -> fail "%s: replay: %s" what e);
  if Serve.tick_count r <> crash_at then
    fail "%s: recovery reached tick %d, crashed at %d" what (Serve.tick_count r)
      crash_at;
  Serve.run r ~ticks:(size.ticks - crash_at);
  Serve.complete r;
  check_recovered ~what ~expected:digest (Serve.digest r);
  ignore (Serve.retire r : Engine.run_result);
  let shed = Counters.value counters Counters.Serve_shed in
  finish_inst m ~digest ~prepare_s ~controller_s ~results
    ~attempted:(List.length results + shed)
    ~failed:(failed_items results + shed)
    ~recover_s:(restore_s +. replay_s) ~counters
    ~checkpoint_bytes ~wal_bytes

(* shard-churn: Shard_fabric with 4 shards over 8 regions on one domain
   (no probe pool), per-shard WALs, the coordinator journal and a fabric
   checkpoint. Crash image and check as for serve-durable; recovery is
   Shard_fabric.recover. *)
let shard_instance (size : size) m ~dir sub =
  let live = Filename.concat dir "live" and crash = Filename.concat dir "crash" in
  reset_dir live;
  reset_dir crash;
  trace_on m;
  let sc, prepare_s = prepare sub in
  let topology = sc.Scenario.topology in
  let config = Shard_fabric.default_config ~regions:8 (serve_config sub) ~shards:4 in
  let source_spec = source_spec size sub in
  let base = Filename.concat live "wal" and cp = Filename.concat live "cp" in
  let t, controller_s =
    timed (fun () ->
        Trace.with_span "setup.controller" (fun () ->
            Shard_fabric.create ~journal_base:base config ~topology
              ~net:sc.Scenario.net ~source_spec))
  in
  settle ();
  let before = Counters.snapshot () in
  let crash_at = crash_tick size in
  for tick = 1 to size.ticks do
    drive m (fun () ->
        Trace.with_span "tick" (fun () -> Shard_fabric.tick t);
        if tick mod size.checkpoint_every = 0 then
          Trace.with_span "checkpoint" (fun () ->
              Shard_fabric.save_checkpoint t ~path:cp));
    probe_invariants m sc.Scenario.net;
    if tick = crash_at then copy_dir live crash
  done;
  drive ~sample:false m (fun () ->
      Trace.with_span "complete" (fun () -> Shard_fabric.complete t));
  let counters = Counters.diff ~before ~after:(Counters.snapshot ()) in
  trace_off m;
  let what = "shard-churn" in
  let shards = Shard_fabric.shard_count t in
  let results =
    List.concat
      (List.init shards (fun k ->
           Array.to_list
             (Engine.Stepper.result (Shard_fabric.stepper t k)).Engine.events))
    @ Shard_coord.results (Shard_fabric.coord t)
  in
  let digest = Shard_fabric.digest t in
  let checkpoint_bytes = Int64.to_int (file_size cp) in
  let wal_bytes =
    List.fold_left ( + ) 0
      (List.init shards (fun k ->
           journal_bytes (Shard_fabric.shard_journal_path base k)))
  in
  Shard_fabric.close t;
  check_invariants ~what sc.Scenario.net;
  for k = 0 to shards - 1 do
    check_wal ~what (Shard_fabric.shard_journal_path base k) ~frames:None
  done;
  trace_on m;
  let recovered, recover_s =
    timed (fun () ->
        Trace.with_span "recover" (fun () ->
            Shard_fabric.recover config ~topology ~source_spec
              ~checkpoint_path:(Filename.concat crash "cp")
              ~journal_base:(Filename.concat crash "wal")))
  in
  trace_off m;
  let r =
    match recovered with
    | Ok (r, _) -> r
    | Error e -> fail "%s: recover: %s" what e
  in
  if Shard_fabric.tick_count r <> crash_at then
    fail "%s: recovery reached tick %d, crashed at %d" what
      (Shard_fabric.tick_count r) crash_at;
  Shard_fabric.run r ~ticks:(size.ticks - crash_at);
  Shard_fabric.complete r;
  check_recovered ~what ~expected:digest (Shard_fabric.digest r);
  Shard_fabric.close r;
  let shed = Counters.value counters Counters.Serve_shed in
  (* A coordinator event that degrades is a failure even when all its
     items were placed. *)
  let degraded = Counters.value counters Counters.Shard_coord_degraded in
  finish_inst m ~digest ~prepare_s ~controller_s ~results
    ~attempted:(List.length results + shed)
    ~failed:(failed_items results + shed + degraded)
    ~recover_s ~counters ~checkpoint_bytes ~wal_bytes

let instance kind size ~traced ~dir sub =
  let m = meter traced in
  match kind with
  | Lmtf_churn -> stepper_instance ~faults:false size m sub
  | Fault_churn -> stepper_instance ~faults:true size m sub
  | Serve_durable -> serve_instance size m ~dir sub
  | Shard_churn -> shard_instance size m ~dir sub

(* One pass over [count] instances, each from its own sub-seed. *)
let run_pass kind size ~traced ~dir ~seed ~count =
  List.init count (fun i ->
      let x, wall = timed (fun () -> instance kind size ~traced ~dir (sub_seed seed i)) in
      Printf.printf
        "  %s instance %d: digest %s, %.3f s in all, set-up %.3f s, %d events \
         in %.3f s, %.1f MB/ev, %.0f Mbit/ev, %d probes, %d rounds, recovery \
         %.3f s\n%!"
        (if traced then "traced" else "untraced")
        i x.digest wall (x.prepare_s +. x.controller_s) x.events x.measured_s
        (x.alloc_bytes /. 1e6 /. float_of_int (max 1 x.events))
        (x.cost_mbit /. float_of_int (max 1 x.events))
        (Counters.value x.counters Counters.Planner_probes)
        (Counters.value x.counters Counters.Engine_rounds)
        x.recover_s;
      x)

(* ------------------------------------------------------------------ *)
(* Metrics.                                                            *)

let count insts key =
  float_of_int (sumi (fun i -> Counters.value i.counters key) insts)

(* Wall figures pool every instance of the run. The tail keeps ten
   calls per instance beyond it, not ten per run: the ten slowest calls
   of a run are its few heaviest events, and which those are swings
   with the seed far more than the code. *)
let end_to_end insts =
  let samples = List.concat_map (fun (i : inst) -> i.samples) insts in
  let events = float_of_int (sumi (fun (i : inst) -> i.events) insts) in
  let n = List.length samples in
  let p = tail_percentile ~per:(n / List.length insts) in
  let heap = (Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8) in
  let metrics =
    [
      ("setup_s", "s", median (List.map (fun i -> i.prepare_s +. i.controller_s) insts));
      ("events_per_s", "ev/s", ratio events (sum (fun i -> i.measured_s) insts));
      ("step_p50_ms", "ms", percentile 50.0 samples);
      ("step_tail_ms", "ms", percentile p samples);
      ("peak_heap_mb", "MB", float_of_int heap /. 1e6);
      ( "alloc_mb_per_event",
        "MB/ev",
        ratio (sum (fun i -> i.alloc_bytes) insts /. 1e6) events );
      ("recover_s", "s", median (List.map (fun i -> i.recover_s) insts));
    ]
  in
  let note =
    Printf.sprintf
      "step_tail_ms is p%.1f of %d driving calls in %d instances (%d \
       beyond it)"
      p n (List.length insts)
      (List.length (List.filter (fun x -> x > percentile p samples) samples))
  in
  (metrics, note)

(* Per-name span totals over the traced pass: (count, total ms, self ms). *)
let span_table insts =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (i : inst) ->
      List.iter
        (fun (name, n, total, self) ->
          let c0, t0, s0 =
            Option.value (Hashtbl.find_opt tbl name) ~default:(0, 0.0, 0.0)
          in
          Hashtbl.replace tbl name
            (c0 + n, t0 +. (ns_to_s total *. 1e3), s0 +. (ns_to_s self *. 1e3)))
        (Obs.Profile.hotspots ~top:max_int
           (Obs.Profile.of_events i.events_trace)))
    insts;
  tbl

let per_layer kind ~untraced ~traced =
  let spans = span_table traced in
  let span name = Option.value (Hashtbl.find_opt spans name) ~default:(0, 0.0, 0.0) in
  let self name = let _, _, s = span name in s in
  let total name = let _, t, _ = span name in t in
  let mean_self name = let n, _, s = span name in ratio s (float_of_int n) in
  let mean_total name = let n, t, _ = span name in ratio t (float_of_int n) in
  let cnt key = count traced key in
  let rounds = cnt Counters.Engine_rounds in
  let events = (float_of_int (sumi (fun (i : inst) -> i.events) traced)) in
  let per_round x = ratio x rounds in
  let serving = kind = Serve_durable || kind = Shard_churn in
  let only b x = if b then x else 0.0 in
  let is_serve = kind = Serve_durable and is_shard = kind = Shard_churn in
  let calls = (float_of_int (sumi (fun (i : inst) -> i.calls) traced)) in
  let eps insts =
    ratio
      (float_of_int (sumi (fun (i : inst) -> i.events) insts))
      (sum (fun i -> i.measured_s) insts)
  in
  let untraced_eps = eps untraced and traced_eps = eps traced in
  let untraced_ms = sum (fun i -> i.measured_s) untraced *. 1e3 in
  let inv_ms = List.concat_map (fun (i : inst) -> i.inv_ms) traced in
  let checks =
    (count traced Counters.Invariant_checks -. float_of_int (List.length inv_ms))
  in
  let hits = cnt Counters.Estimate_cache_hits and misses = cnt Counters.Estimate_cache_misses in
  let ckpt_ms = mean_total "checkpoint" in
  [
    ("setup.prepare_s", "s", median (List.map (fun i -> i.prepare_s) traced));
    ("setup.controller_s", "s", median (List.map (fun i -> i.controller_s) traced));
    ("sim.ect_mean_s", "s", ratio (sum (fun i -> sum Fun.id i.ects) traced) events);
    ( "sim.ect_p99_s",
      "s",
      median (List.map (fun (i : inst) -> percentile 99.0 i.ects) traced) );
    ("sim.cost_mbit_per_event", "Mbit", ratio (sum (fun i -> i.cost_mbit) traced) events);
    ("sched.rounds", "count", rounds);
    ("sched.events", "count", events);
    ("sched.step_self_ms", "ms", mean_self "step");
    ("sched.round_self_ms", "ms", mean_self "round");
    ("net.txn_rollbacks_per_round", "count", per_round (cnt Counters.Txn_rollbacks));
    ("net.churn_placements_per_round", "count", per_round (cnt Counters.Churn_placements));
    ("planner.probes_per_round", "count", per_round (cnt Counters.Planner_probes));
    ( "planner.probes_per_s",
      "1/s",
      ratio (count untraced Counters.Planner_probes) (sum (fun i -> i.measured_s) untraced) );
    ("planner.estimate_ms_per_round", "ms", per_round ((self "estimate")));
    ( "planner.plan_ms_per_round",
      "ms",
      per_round ((self "plan" +. self "revert")) );
    ("planner.replays_per_round", "count", per_round (cnt Counters.Plan_replays));
    ("migration.migrate_ms_per_round", "ms", per_round ((self "migrate")));
    ("migration.moves_per_event", "count", ratio (cnt Counters.Migration_moves) events);
    ("estimate_cache.hit_ratio", "ratio", ratio hits (hits +. misses));
    ("estimate_cache.lookups", "count", hits +. misses);
    ("invariant.checks", "count", checks);
    ("invariant.check_ms", "ms", mean inv_ms);
    ("invariant.share", "ratio", ratio (checks *. mean inv_ms) untraced_ms);
    ("fault.injected", "count", cnt Counters.Faults_injected);
    ("fault.aborts", "count", cnt Counters.Migrations_aborted);
    ("fault.retries", "count", cnt Counters.Retries);
    ("fault.degraded", "count", cnt Counters.Events_degraded);
    ("fault.degraded_round_ms", "ms", (total "degraded_round"));
    ("serve.ticks", "count", only serving calls);
    ("serve.tick_self_ms", "ms", only is_serve (mean_self "tick"));
    ( "serve.wal_bytes_per_tick",
      "B",
      only serving
        (ratio
           ((float_of_int (sumi (fun (i : inst) -> i.wal_bytes) traced)))
           calls) );
    ("serve.checkpoint_ms", "ms", only is_serve ckpt_ms);
    ( "serve.checkpoint_bytes",
      "B",
      only is_serve (mean (List.map (fun i -> float_of_int i.checkpoint_bytes) traced)) );
    ("serve.restore_ms", "ms", mean_total "restore");
    ("serve.replay_ms", "ms", mean_total "replay");
    ("serve.admitted", "count", cnt Counters.Serve_admitted);
    ("serve.deferred", "count", cnt Counters.Serve_deferred);
    ("serve.shed", "count", cnt Counters.Serve_shed);
    ("shard.tick_self_ms", "ms", only is_shard (mean_self "tick"));
    ("shard.escalations_per_round", "count", per_round (cnt Counters.Shard_escalations));
    ("shard.coord_commits", "count", cnt Counters.Shard_coord_commits);
    ("shard.coord_aborts", "count", cnt Counters.Shard_coord_aborts);
    ("shard.wave_replans", "count", cnt Counters.Shard_wave_replans);
    ("shard.rebalances", "count", cnt Counters.Shard_rebalances);
    ("shard.checkpoint_ms", "ms", only is_shard ckpt_ms);
    ("shard.recover_ms", "ms", mean_total "recover");
    ("trace.unattributed_ms", "ms", (self "step" +. self "tick"));
    ("trace.overhead", "ratio", ratio traced_eps untraced_eps);
    ("trace.traced_events_per_s", "ev/s", traced_eps);
    ("trace.untraced_events_per_s", "ev/s", untraced_eps);
  ]

(* ------------------------------------------------------------------ *)
(* Output.                                                             *)

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let result_line ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           if not (Float.is_finite v) then fail "metric %s is %f" name v;
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
             (json_number v) unit)
         metrics)
  in
  Printf.sprintf
    "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    attempted failed body

let print_table metrics =
  List.iter
    (fun (name, unit, v) -> Printf.printf "  %-34s %16.6f %s\n" name v unit)
    metrics

(* ------------------------------------------------------------------ *)
(* Command line.                                                       *)

(* A run's instance digests against [--expect-digest] (the combined
   digest) or the recorded per-instance values for this seed. *)
let check_digests ~name ~seed ~smoke ~expect insts =
  let digests = List.map (fun (i : inst) -> i.digest) insts in
  let combined = Run_digest.combine digests in
  let recorded =
    if smoke then None
    else Option.bind (List.assoc_opt name Recorded.digests) (List.assoc_opt seed)
  in
  match (expect, recorded) with
  | Some d, _ ->
      if d <> combined then
        fail "%s seed %d: decision digest %s, expected %s" name seed combined d;
      Printf.printf "digest %s as expected\n" combined
  | None, Some want ->
      List.iteri
        (fun k got ->
          match List.nth_opt want k with
          | Some w when w <> got ->
              fail "%s seed %d instance %d: decision digest %s, recorded %s" name
                seed k got w
          | Some _ | None -> ())
        digests;
      Printf.printf "digest %s; %d instance digest(s) match the recorded values\n"
        combined
        (min (List.length digests) (List.length want))
  | None, None ->
      Printf.printf "digest %s (no recorded values for seed %d)\n" combined seed

let main () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 25.0 in
  let trace = ref 0 and state_dir = ref ".perfbench_state" in
  let storage = ref "unknown" and smoke = ref false and expect = ref None in
  let record = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (>= 0)");
      ("--seconds", Arg.Set_float seconds, "S run length; sets the instance count");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--state-dir", Arg.Set_string state_dir, "DIR scratch dir for WALs and checkpoints");
      ("--storage", Arg.Set_string storage, "FS file system of --state-dir, as reported");
      ("--smoke", Arg.Set smoke, " minimal sizes, one instance (tests)");
      ("--expect-digest", Arg.String (fun d -> expect := Some d), "HEX required decision digest");
      ( "--record",
        Arg.Set_string record,
        "FIRST-LAST print the instance digests of these seeds at --seconds" );
    ]
  in
  let usage = "perfbench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !record <> "" then begin
    let first, last =
      try Scanf.sscanf !record "%d-%d%!" (fun a b -> (a, b))
      with _ -> fail "--record wants FIRST-LAST"
    in
    List.iter
      (fun (name, kind) ->
        if !workload = "" || !workload = name then begin
          let size = size ~smoke:false kind in
          Printf.printf "    ( %S,\n      [\n" name;
          for s = first to last do
            let insts =
              run_pass kind size ~traced:false ~dir:(Filename.concat !state_dir name)
                ~seed:s ~count:(instances size ~seconds:!seconds)
            in
            Printf.printf "        (%d, [ %s ]);\n%!" s
              (String.concat "; "
                 (List.map (fun (i : inst) -> Printf.sprintf "%S" i.digest) insts))
          done;
          Printf.printf "      ] );\n%!"
        end)
      workloads;
    exit 0
  end;
  let kind =
    match List.assoc_opt !workload workloads with
    | Some k -> k
    | None ->
        Printf.eprintf "perfbench: unknown workload %S (one of %s)\n" !workload
          (String.concat ", " (List.map fst workloads));
        exit 2
  in
  if !seed < 0 then (prerr_endline "perfbench: --seed N (>= 0) is required"; exit 2);
  if !trace <> 0 && !trace <> 1 then (prerr_endline "perfbench: --trace is 0 or 1"; exit 2);
  let name = !workload and seed = !seed in
  let size = size ~smoke:!smoke kind in
  let dir = Filename.concat !state_dir name in
  (* The traced run splits its length between an untraced and a traced
     pass over the same instances. *)
  let count =
    instances size ~seconds:(if !trace = 1 then !seconds /. 2.0 else !seconds)
  in
  Printf.printf "perfbench %s seed %d: %d instance(s); durable state in %s (%s)\n"
    name seed count dir !storage;
  let untraced = run_pass kind size ~traced:false ~dir ~seed ~count in
  check_digests ~name ~seed ~smoke:!smoke ~expect:!expect untraced;
  let busy = sumi (fun (i : inst) -> i.busy_calls) untraced
  and calls = sumi (fun (i : inst) -> i.calls) untraced in
  Printf.printf "%d driving calls, %.1f%% ran a round\n" calls
    (100.0 *. ratio (float_of_int busy) (float_of_int calls));
  let attempted = sumi (fun i -> i.attempted) untraced
  and failed = sumi (fun i -> i.failed) untraced in
  let metrics =
    if !trace = 0 then begin
      let metrics, note = end_to_end untraced in
      print_endline note;
      metrics
    end
    else begin
      let traced = run_pass kind size ~traced:true ~dir ~seed ~count in
      (* Tracing records; it must not change one decision. *)
      List.iter2
        (fun (u : inst) (t : inst) ->
          if u.digest <> t.digest then
            fail "%s seed %d: traced digest %s differs from untraced %s" name seed
              t.digest u.digest)
        untraced traced;
      per_layer kind ~untraced ~traced
    end
  in
  print_table metrics;
  if Sys.file_exists dir then
    Array.iter
      (fun f -> reset_dir (Filename.concat dir f))
      (Sys.readdir dir);
  print_endline (result_line ~attempted ~failed metrics)

let () = main ()
