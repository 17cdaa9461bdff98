module Trace = Nu_obs.Trace
module Counters = Nu_obs.Counters
module Histogram = Nu_obs.Histogram
module Series = Nu_obs.Series
module Injector = Nu_fault.Injector

type event_result = {
  event_id : int;
  arrival_s : float;
  start_s : float;
  completion_s : float;
  cost_mbit : float;
  plan_work_units : int;
  failed_items : int;
  co_scheduled : bool;
}

let ect r = r.completion_s -. r.arrival_s
let queuing_delay r = r.start_s -. r.arrival_s

type round_info = {
  round_start_s : float;
  executed : int list;
  co_count : int;
  round_units : int;
  fabric_utilization : float;
}

(* Stepper progress callbacks for external observers (the serving
   telemetry layer). Observations are emitted after the corresponding
   state mutation and carry copies of already-computed values only —
   an observer can record but never perturb a decision. *)
type observation =
  | Round_executed of {
      round : int;
      start_s : float;
      executed : int list;
      co_ids : int list;
      degraded : bool;
    }
  | Round_aborted of {
      round : int;
      start_s : float;
      fault_s : float;
      batch : int list;
    }
  | Event_completed of { result : event_result; degraded : bool }
  | Event_retry of { event_id : int; ready_s : float }
  | Round_escalated of { round : int; start_s : float; event_id : int }

type run_result = {
  policy : Policy.t;
  events : event_result array;
  rounds : int;
  rounds_log : round_info list;
  total_plan_units : int;
  total_plan_time_s : float;
  total_cost_mbit : float;
  makespan_s : float;
  final_fabric_utilization : float;
  planning_wall_s : float;
}

type churn = {
  make_flow : id:int -> Flow_record.t;
  target_utilization : float;
  max_placements_per_round : int;
  first_id : int;
}

(* Shared per-run mutable accounting. *)
type ctx = {
  net : Net_state.t;
  rng : Prng.t;
  churn : churn option;
  expiry : int Pqueue.t;  (* flow id keyed by departure instant *)
  co_max_cost_mbit : float;
  injector : Injector.t option;  (* fault schedule; None = fault-free *)
  series : Series.t option;  (* per-round gauge samples; None = off *)
  domains : int;  (* probe fan-out width; 1 = sequential *)
  mutable next_churn_id : int;
  mutable units : int;  (* plan-time-billable probes *)
  mutable wall : float;  (* real planner CPU seconds *)
  mutable pool : Probe_pool.t option;
      (* persistent worker domains; created at the first fanned-out
         batch, torn down by [close] (the batch [run] does it on exit;
         a stepper owner calls [Stepper.close]) *)
}

(* Expire flows whose departure has passed, then refill the background to
   the churn setpoint. Called at each service round boundary. *)
let sync_background ctx now =
  match ctx.churn with
  | None -> ()
  | Some ch ->
      let rec expire () =
        match Pqueue.peek ctx.expiry with
        | Some (dep, flow_id) when dep <= now ->
            ignore (Pqueue.pop ctx.expiry);
            (* The flow may already be gone (e.g. double registration);
               removal is idempotent through the error case. *)
            (match Net_state.remove ctx.net flow_id with
            | Ok _ | Error `Not_found -> ());
            expire ()
        | Some _ | None -> ()
      in
      expire ();
      let attempts = ref 0 and placed = ref 0 in
      let max_attempts = 3 * ch.max_placements_per_round in
      while
        !placed < ch.max_placements_per_round
        && !attempts < max_attempts
        && Net_state.mean_fabric_utilization ctx.net < ch.target_utilization
      do
        incr attempts;
        let id = ctx.next_churn_id in
        ctx.next_churn_id <- id + 1;
        let record = ch.make_flow ~id in
        match Routing.select ctx.net record with
        | None -> ()
        | Some path -> (
            match Net_state.place ctx.net record path with
            | Ok () ->
                incr placed;
                Counters.incr Counters.Churn_placements;
                Pqueue.push ctx.expiry
                  (now +. record.Flow_record.duration_s)
                  record.Flow_record.id
            | Error _ -> ())
      done

(* Register departures for the flows an executed plan installed. *)
let schedule_departures ctx ~completion (plan : Planner.t) =
  if Option.is_some ctx.churn then
    List.iter
      (fun (item : Planner.item_plan) ->
        match (item.outcome, item.work) with
        | Planner.Installed _, Event.Install r ->
            Pqueue.push ctx.expiry
              (completion +. r.Flow_record.duration_s)
              r.Flow_record.id
        | _ -> ())
      plan.Planner.items

(* Monotonic wall clock, not [Sys.time]: getrusage is a real syscall on
   the per-probe path, and process CPU time sums across domains — the
   parallel fan-out would report more "planning wall" the more domains
   it used. *)
let timed ctx f =
  let t0 = Monotonic_clock.now () in
  let v = f () in
  ctx.wall <-
    ctx.wall +. (Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9);
  v

let series_columns =
  [
    "round";
    "queue_len";
    "retry_backlog";
    "active_flows";
    "mean_fabric_utilization";
    "max_link_utilization";
  ]

let make_series () = Series.create ~columns:series_columns ()

(* One gauge row per service round, sampled at the decision instant
   (after background sync, before planning). Pure reads of the network
   state — attaching a series cannot perturb a scheduling decision —
   and with no series attached the cost is one match on [None]. *)
let sample_series ctx ~round ~t_s ~queue_len ~retry_backlog =
  match ctx.series with
  | None -> ()
  | Some s ->
      Series.sample s ~t_s
        [|
          float_of_int round;
          float_of_int queue_len;
          float_of_int retry_backlog;
          float_of_int (Net_state.flow_count ctx.net);
          Net_state.mean_fabric_utilization ctx.net;
          Net_state.max_utilization ctx.net;
        |]

(* Re-apply the round winner's probe plan. Every losing probe rolled
   back, so the state is exactly the one the winner's plan was computed
   against: replaying its recorded operations is equivalent to (and much
   cheaper than) the full re-plan the engine used to pay here. *)
let apply_winner ctx (pr : Planner.probe) =
  timed ctx (fun () -> Planner.replay ctx.net pr.Planner.probe_plan);
  pr.Planner.probe_plan

(* Apply a plan for execution. [billed] is false when the scheduler
   already paid for an estimate of this event this round and reuses it.
   [frozen] marks flows other plans of the same round are installing.
   [config] overrides {!Planner.default_config} (degraded rounds and
   P-LMTF's co-attempts use {!scan_first}). *)
let apply ?frozen ?(config = Planner.default_config) ctx ~billed ev =
  let plan =
    timed ctx (fun () -> Planner.plan ~config ?frozen ctx.net ev)
  in
  if billed then ctx.units <- ctx.units + plan.Planner.work_units;
  plan

let scan_first =
  { Planner.default_config with Planner.admission = Planner.Scan_first }

(* Flows a plan installs or reroutes as event work. These are mid-update
   during the round, so a co-scheduled plan must not migrate them. *)
let work_flow_ids (plan : Planner.t) =
  List.filter_map
    (fun (item : Planner.item_plan) ->
      match (item.outcome, item.work) with
      | Planner.Installed _, Event.Install r -> Some r.Flow_record.id
      | Planner.Rerouted _, Event.Reroute { flow_id; _ } -> Some flow_id
      | _ -> None)
    plan.Planner.items


(* Lowest estimated cost wins; arrival order breaks ties. *)
let pick_winner costed =
  List.fold_left
    (fun ((best_pr : Planner.probe), best_ev) ((pr : Planner.probe), ev) ->
      if
        pr.Planner.probe_est.Planner.est_cost_mbit
        < best_pr.Planner.probe_est.Planner.est_cost_mbit
        || (pr.Planner.probe_est.Planner.est_cost_mbit
            = best_pr.Planner.probe_est.Planner.est_cost_mbit
            && Event.compare_by_arrival ev best_ev < 0)
      then (pr, ev)
      else (best_pr, best_ev))
    (match costed with c :: _ -> (fst c, snd c) | [] -> assert false)
    costed

(* Incremental event-level stepper: the old run_event_level loop with
   its mutable refs lifted into a record, so one service round can be
   executed at a time and new events can be submitted between rounds —
   the substrate of both the batch [run] (which just steps to
   exhaustion, bit-identically to the historical loop) and the online
   controller in [Nu_serve] (which interleaves submits, steps and
   checkpoints). *)
type stepper = {
  ctx : ctx;
  policy : Policy.t;
  fault_mode : bool;
      (* Fault hooks engage only when the injector actually has faults
         to deliver: an absent injector — or one with an empty schedule
         — keeps the loop on the exact fault-free path (no transactions,
         no checks), so the two runs are bit-identical. *)
  mutable pending : Event.t list;  (* future arrivals, arrival-sorted *)
  mutable queue : Event.t list;
  mutable held : (float * Event.t) list;
      (* aborted events awaiting their retry instant: (ready_s, event) *)
  mutable now : float;
  mutable rounds : int;
  mutable results : event_result list;  (* newest-first *)
  mutable log : round_info list;  (* newest-first *)
  observer : (observation -> unit) option;
}

let fault_mode_of injector =
  match injector with
  | Some inj -> Injector.next_due_s inj <> None
  | None -> false

let notify st obs =
  match st.observer with Some f -> f obs | None -> ()

let promote st =
  let arrived, later =
    List.partition (fun ev -> ev.Event.arrival_s <= st.now) st.pending
  in
  st.pending <- later;
  st.queue <- st.queue @ arrived

(* Re-admit aborted events whose backoff has elapsed, at their arrival
   rank: a retried event competes again exactly as if it were still
   waiting, so FIFO order and LMTF sampling stay well-defined. *)
let release_held st =
  if st.held <> [] then begin
    let ready, waiting = List.partition (fun (r, _) -> r <= st.now) st.held in
    st.held <- waiting;
    if ready <> [] then
      st.queue <-
        List.stable_sort Event.compare_by_arrival
          (st.queue @ List.map snd ready)
  end

(* Earliest instant at which new work can appear while the queue is
   empty: the next arrival or the next retry becoming ready. *)
let next_work_s st =
  let a =
    match st.pending with ev :: _ -> ev.Event.arrival_s | [] -> infinity
  in
  List.fold_left (fun m (ready, _) -> min m ready) a st.held

let apply_faults_due st =
  match st.ctx.injector with
  | Some inj when st.fault_mode ->
      let n = Injector.apply_due inj st.ctx.net ~now:st.now in
      if n > 0 then ignore (Injector.check_now inj st.ctx.net ~now:st.now)
  | Some _ | None -> ()

(* Terminal best-effort service for an event whose retries ran out:
   scan-first admission fits what it can into the surviving capacity,
   unsatisfiable items are reported as failed — the event completes
   degraded instead of being dropped or retried forever. Runs outside
   any transaction and is not itself interruptible. *)
let execute_degraded st ev =
  let ctx = st.ctx in
  let sp =
    if Trace.enabled () then
      Some
        (Trace.span "degraded_round"
           ~attrs:
             [
               ("event", Trace.Int ev.Event.id);
               ("start_s", Trace.Float st.now);
             ])
    else None
  in
  let round_start_s = st.now in
  let round_utilization = Net_state.mean_fabric_utilization ctx.net in
  sample_series ctx ~round:st.rounds ~t_s:round_start_s
    ~queue_len:(List.length st.queue) ~retry_backlog:(List.length st.held);
  let units_before = ctx.units in
  let plan = apply ctx ~billed:true ~config:scan_first ev in
  let round_units = ctx.units - units_before in
  let plan_time = Exec_model.plan_time ~work_units:round_units in
  let start_s = st.now +. plan_time in
  let completion_s = start_s +. Exec_model.execution_time plan in
  schedule_departures ctx ~completion:completion_s plan;
  st.rounds <- st.rounds + 1;
  Counters.incr Counters.Engine_rounds;
  Counters.add Counters.Events_executed 1;
  st.log <-
    {
      round_start_s;
      executed = [ ev.Event.id ];
      co_count = 0;
      round_units;
      fabric_utilization = round_utilization;
    }
    :: st.log;
  let result =
    {
      event_id = ev.Event.id;
      arrival_s = ev.Event.arrival_s;
      start_s;
      completion_s;
      cost_mbit = plan.Planner.cost_mbit;
      plan_work_units = plan.Planner.work_units;
      failed_items = plan.Planner.failed_count;
      co_scheduled = false;
    }
  in
  st.results <- result :: st.results;
  st.now <- completion_s;
  notify st
    (Round_executed
       {
         round = st.rounds - 1;
         start_s = round_start_s;
         executed = [ ev.Event.id ];
         co_ids = [];
         degraded = true;
       });
  notify st (Event_completed { result; degraded = true });
  match sp with
  | Some sp ->
      Trace.finish sp ~attrs:[ ("completion_s", Trace.Float completion_s) ]
  | None -> ()


(* ------------------------------------------------------------------ *)
(* The round kernel.                                                   *)

(* One service round for each of a set of steppers that share one
   network, in three phases:

   - pre-round, per stepper in array order: due faults, the empty-queue
     time jump, background churn sync, the series sample, and candidate
     selection with its PRNG draws on the calling domain;
   - probe: every candidate of every stepper in one batch, against the
     quiescent state the pre-rounds left ([probe_wave]);
   - commit, per stepper in array order: the winner replays its probe
     plan when no edge it touched changed since the batch, and re-plans
     live when an earlier commit of the same wave invalidated it; then
     the escalation hook, P-LMTF co-scheduling, the fault guard,
     timings and results ([commit_round]).

   [step] is the one-wide wave: nothing runs between its probes and its
   commit, so the lone winner always replays. *)

type group_pre = {
  gp_index : int;
  gp_st : stepper;
  gp_round_start_s : float;
  gp_round_utilization : float;
  gp_units_before : int;
  gp_candidates : Event.t array;
  gp_span : Trace.span option;  (* round span opened at pre-round *)
}

type group_decision = {
  gd_pre : group_pre;
  gd_win : Planner.probe * Event.t;
  gd_stamps : (int * int) array;  (* (edge, version) at decision time *)
  gd_epoch : int;  (* disabled_epoch at decision time *)
}

let round_span st =
  if Trace.enabled () then
    Some
      (Trace.span "round"
         ~attrs:
           [
             ("start_s", Trace.Float st.now);
             ("queue", Trace.Int (List.length st.queue));
           ])
  else None

(* Trace spans close LIFO, so only a one-wide wave ([solo]) opens its
   round span here, around its probes; in a wider wave the probe batch
   belongs to no single round and each round span opens at its commit.
   The background refill's [churn] span closes before pre-round returns,
   so it nests in a solo round span and stands alone in a wider wave.
   Returns [None] when the stepper has no work. *)
let pre_round ~solo ~index st =
  if st.queue = [] && st.pending = [] && st.held = [] then None
  else begin
    let ctx = st.ctx in
    if st.queue = [] then begin
      st.now <- max st.now (next_work_s st);
      promote st;
      release_held st
    end;
    apply_faults_due st;
    match st.queue with
    | [] -> None
    | head :: tail ->
        let span = if solo then round_span st else None in
        let churn_sp = Trace.span "churn" in
        sync_background ctx st.now;
        Trace.finish churn_sp;
        let round_start_s = st.now in
        let round_utilization = Net_state.mean_fabric_utilization ctx.net in
        sample_series ctx ~round:st.rounds ~t_s:round_start_s
          ~queue_len:(List.length st.queue)
          ~retry_backlog:(List.length st.held);
        let candidates =
          match st.policy with
          | Policy.Fifo -> [ head ]
          | Policy.Reorder -> st.queue
          | Policy.Lmtf { alpha } | Policy.Plmtf { alpha } ->
              let sampled =
                if tail = [] then []
                else begin
                  let arr = Array.of_list tail in
                  let picks =
                    Prng.sample_without_replacement ctx.rng alpha
                      (Array.length arr)
                  in
                  List.map (fun i -> arr.(i)) picks
                end
              in
              head :: sampled
          | Policy.Flow_level _ ->
              invalid_arg "Engine.step_group: flow-level policies are batch-only"
        in
        Some
          {
            gp_index = index;
            gp_st = st;
            gp_round_start_s = round_start_s;
            gp_round_utilization = round_utilization;
            gp_units_before = ctx.units;
            gp_candidates = Array.of_list candidates;
            gp_span = span;
          }
  end

(* Below this many probes a wave is evaluated on the
   calling domain even when a pool is available: waking the workers
   costs microseconds, but a couple of sub-millisecond probes amortise
   nothing and the tail of a draining queue lives here. Either way the
   decision — and the digest — is identical. *)
let min_parallel_probes = 4

(* The stepper's own worker pool, created at its first fanned-out
   batch and torn down by [close_ctx]. *)
let private_pool ctx =
  match ctx.pool with
  | Some p -> p
  | None ->
      let p = Probe_pool.create ~domains:ctx.domains ~net:ctx.net in
      ctx.pool <- Some p;
      p

(* Every candidate probe of the wave in one batch. Probes plan inside a
   transaction and roll back, so each sees the same quiescent state and
   the batch is bit-identical however it is evaluated:

   - the candidates are probed in (stepper, candidate) order on the
     calling domain, or fanned out through the pool of [owner] (the
     wave's first stepper, with work or not) when it was created with
     [domains > 1], each lane probing its own mirror of the state;
   - unit billing replays in (stepper, candidate) order.

   Planning draws no randomness, so where a probe runs cannot change
   what it returns. *)
let probe_wave ~owner pres =
  let slots =
    List.map (fun gp -> Array.make (Array.length gp.gp_candidates) None) pres
  in
  let batch =
    Array.of_list
      (List.concat
         (List.map2
            (fun gp slot ->
              List.init (Array.length gp.gp_candidates) (fun i -> (gp, slot, i)))
            pres slots))
  in
  let n_probes = Array.length batch in
  let sequential = n_probes < min_parallel_probes || owner.ctx.domains <= 1 in
  let store (_, (slot : Planner.probe option array), i) pr =
    slot.(i) <- Some pr
  in
  if n_probes > 0 then
    if sequential then
      Array.iter
        (fun ((gp, _, i) as m) ->
          let ctx = gp.gp_st.ctx in
          store m
            (timed ctx (fun () ->
                 Planner.probe ctx.net gp.gp_candidates.(i))))
        batch
    else begin
      let pool = private_pool owner.ctx in
      Counters.incr Counters.Probe_parallel_batches;
      Counters.add Counters.Domain_probes n_probes;
      let t0 = Monotonic_clock.now () in
      let fresh =
        Probe_pool.map pool
          ~f:(fun local (gp, _, i) ->
            Planner.probe local gp.gp_candidates.(i))
          batch
      in
      let dt =
        Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9
      in
      (* Attribute the batch wall to the participating steppers in
         proportion to the probes each contributed. *)
      let total = float_of_int n_probes in
      List.iter
        (fun gp ->
          let mine = Array.length gp.gp_candidates in
          if mine > 0 then
            gp.gp_st.ctx.wall <-
              gp.gp_st.ctx.wall +. (dt *. float_of_int mine /. total))
        pres;
      if Histogram.Registry.enabled () then
        Histogram.Registry.record "planner.probe_batch_s" dt;
      Array.iteri (fun j m -> store m fresh.(j)) batch
    end;
  List.map2
    (fun gp slot ->
      Array.to_list
        (Array.mapi
           (fun i r ->
             match r with
             | Some pr ->
                 let ctx = gp.gp_st.ctx in
                 ctx.units <-
                   ctx.units + pr.Planner.probe_est.Planner.est_work_units;
                 (pr, gp.gp_candidates.(i))
             | None -> assert false)
           slot))
    pres slots

(* Opportunistic updating (P-LMTF, §IV-C): visit the round's other
   candidates in arrival order; co-execute each that stays fully
   satisfiable on the state left by the plans already in the batch and
   does not migrate a flow some batch member is installing or rerouting
   this round. Bandwidth consistency is automatic: each plan is computed
   on the shared state.

   "Can be updated together" is a fit check: the candidate's flows must
   be accommodated in the capacity left around the in-flight batch,
   essentially without displacing anything — so co-attempts plan
   scan-first and are accepted only up to a small migration budget.
   Each attempt runs in a transaction: acceptance commits, rejection
   rolls the journal back instead of re-planning every reroute. *)
let co_schedule ctx ~winner ~winner_plan candidates =
  let protected = Hashtbl.create 64 in
  List.iter
    (fun id -> Hashtbl.replace protected id ())
    (work_flow_ids winner_plan);
  let others =
    List.sort Event.compare_by_arrival
      (List.filter (fun ev -> ev.Event.id <> winner.Event.id) candidates)
  in
  List.filter_map
    (fun ev ->
      Net_state.begin_txn ctx.net;
      let plan =
        apply ctx ~billed:true ~config:scan_first
          ~frozen:(Hashtbl.mem protected) ev
      in
      if
        plan.Planner.failed_count = 0
        && plan.Planner.cost_mbit <= ctx.co_max_cost_mbit
      then begin
        Net_state.commit ctx.net;
        List.iter
          (fun id -> Hashtbl.replace protected id ())
          (work_flow_ids plan);
        Some (ev, plan, true)
      end
      else begin
        timed ctx (fun () -> Net_state.rollback ctx.net);
        None
      end)
    others

let check_faults st =
  match st.ctx.injector with
  | Some inj when st.fault_mode ->
      ignore (Injector.check_now inj st.ctx.net ~now:st.now)
  | Some _ | None -> ()

(* A round that hands its winner to the global coordinator instead of
   executing it: the stepper paid the planning time (the probes are
   billed), the event leaves its queue, and the round logs with an
   empty batch. *)
let escalation_round gd =
  let gp = gd.gd_pre in
  let st = gp.gp_st in
  let ctx = st.ctx in
  let _, winner = gd.gd_win in
  let round_units = ctx.units - gp.gp_units_before in
  let plan_time = Exec_model.plan_time ~work_units:round_units in
  st.queue <-
    List.filter (fun ev -> ev.Event.id <> winner.Event.id) st.queue;
  st.rounds <- st.rounds + 1;
  Counters.incr Counters.Engine_rounds;
  Counters.incr Counters.Shard_escalations;
  st.log <-
    {
      round_start_s = gp.gp_round_start_s;
      executed = [];
      co_count = 0;
      round_units;
      fabric_utilization = gp.gp_round_utilization;
    }
    :: st.log;
  st.now <- gp.gp_round_start_s +. plan_time;
  notify st
    (Round_escalated
       {
         round = st.rounds - 1;
         start_s = gp.gp_round_start_s;
         event_id = winner.Event.id;
       })

(* A fault lands while the round is in flight. The migration is
   aborted: roll the network back to the round's start, let the fault
   strike the pre-round state, and route every batch event through the
   retry policy — bounded backoff, then terminal best-effort
   degradation. *)
let abort_round gp ~fault_s ~round_sp timings =
  let st = gp.gp_st in
  let ctx = st.ctx in
  let inj = Option.get ctx.injector in
  timed ctx (fun () -> Net_state.rollback ctx.net);
  st.now <- max st.now fault_s;
  ignore (Injector.apply_due inj ctx.net ~now:st.now);
  notify st
    (Round_aborted
       {
         round = st.rounds;
         start_s = gp.gp_round_start_s;
         fault_s;
         batch = List.map (fun (ev, _, _, _) -> ev.Event.id) timings;
       });
  let degraded =
    List.filter_map
      (fun (ev, _, _, _) ->
        match Injector.note_abort inj ~event_id:ev.Event.id ~now:st.now with
        | `Retry_at ready_s ->
            st.held <- (ready_s, ev) :: st.held;
            notify st (Event_retry { event_id = ev.Event.id; ready_s });
            None
        | `Degrade -> Some ev)
      timings
  in
  ignore (Injector.check_now inj ctx.net ~now:st.now);
  (match round_sp with
  | Some sp ->
      Trace.finish sp
        ~attrs:
          [
            ("aborted", Trace.Bool true);
            ("fault_s", Trace.Float fault_s);
            ("batch", Trace.Int (List.length timings));
          ]
  | None -> ());
  List.iter (execute_degraded st) degraded

(* Book an executed round. The service is free again when the *chosen*
   event completes; co-scheduled events run in parallel in the network
   and may finish after the next round has already begun (the "parallel
   update" of §IV-C). Their flows are already installed, so later
   planning sees a consistent state. *)
let book_round gp ~start_s ~head_finish ~round_units ~round_sp timings =
  let st = gp.gp_st in
  let ctx = st.ctx in
  let executed = List.map (fun (ev, _, _, _) -> ev.Event.id) timings in
  let co_ids =
    List.filter_map
      (fun (ev, _, co, _) -> if co then Some ev.Event.id else None)
      timings
  in
  let co_count = List.length co_ids in
  st.rounds <- st.rounds + 1;
  Counters.incr Counters.Engine_rounds;
  Counters.add Counters.Events_executed (List.length timings);
  Counters.add Counters.Co_scheduled_events co_count;
  st.log <-
    {
      round_start_s = gp.gp_round_start_s;
      executed;
      co_count;
      round_units;
      fabric_utilization = gp.gp_round_utilization;
    }
    :: st.log;
  let exec_sp =
    if Trace.enabled () then
      Some
        (Trace.span "execute"
           ~attrs:
             [
               ("batch", Trace.Int (List.length timings));
               ("start_s", Trace.Float start_s);
             ])
    else None
  in
  notify st
    (Round_executed
       {
         round = st.rounds - 1;
         start_s = gp.gp_round_start_s;
         executed;
         co_ids;
         degraded = false;
       });
  List.iter
    (fun (ev, plan, co_scheduled, completion_s) ->
      schedule_departures ctx ~completion:completion_s plan;
      let result =
        {
          event_id = ev.Event.id;
          arrival_s = ev.Event.arrival_s;
          start_s;
          completion_s;
          cost_mbit = plan.Planner.cost_mbit;
          plan_work_units = plan.Planner.work_units;
          failed_items = plan.Planner.failed_count;
          co_scheduled;
        }
      in
      st.results <- result :: st.results;
      notify st (Event_completed { result; degraded = false }))
    timings;
  (match exec_sp with
  | Some sp ->
      Trace.finish sp ~attrs:[ ("head_finish_s", Trace.Float head_finish) ]
  | None -> ());
  st.now <- head_finish;
  check_faults st;
  match round_sp with
  | Some sp ->
      Trace.finish sp
        ~attrs:
          [
            ( "executed",
              Trace.Str (String.concat "," (List.map string_of_int executed))
            );
            ("batch", Trace.Int (List.length executed));
            ("co_count", Trace.Int co_count);
            ("units", Trace.Int round_units);
            ("fabric_utilization", Trace.Float gp.gp_round_utilization);
          ]
  | None -> ()

(* Commit one decision of the wave.

   While faults are pending the round is speculative: its commit runs
   inside a transaction, so a fault that lands before the head event
   completes aborts the round wholesale and rolls the network back to
   the commit's start. Churn placements (pre-round) survive an abort,
   and the probes before it rolled themselves back. A round the
   [escalate] hook claims executes nothing here and opens no guard:
   the hook owns the plan. *)
let commit_round ?escalate gd =
  let gp = gd.gd_pre in
  let st = gp.gp_st in
  let ctx = st.ctx in
  let win_pr, winner = gd.gd_win in
  let round_sp = match gp.gp_span with None -> round_span st | sp -> sp in
  let valid =
    Net_state.disabled_epoch ctx.net = gd.gd_epoch
    && Array.for_all
         (fun (e, v) -> Net_state.edge_version ctx.net e = v)
         gd.gd_stamps
  in
  let guard =
    if st.fault_mode then Option.bind ctx.injector Injector.next_due_s
    else None
  in
  let claimed plan ~txn_open ~attempt =
    match escalate with
    | Some f -> f ~shard:gp.gp_index ~event:winner ~plan ~txn_open ~attempt
    | None -> false
  in
  let outcome =
    if valid then begin
      (* A claimed winner's [attempt] is the cheap validated replay of
         its probe plan — nothing is planned twice. *)
      if
        claimed win_pr.Planner.probe_plan ~txn_open:false ~attempt:(fun () ->
            apply_winner ctx win_pr)
      then `Escalated
      else begin
        if guard <> None then Net_state.begin_txn ctx.net;
        `Commit (apply_winner ctx win_pr)
      end
    end
    else begin
      (* An earlier commit of this wave touched one of the winner's
         edges: the probe plan is stale. Re-plan on the live state, in
         a transaction the hook can roll back if it claims the round. *)
      Counters.incr Counters.Shard_wave_replans;
      Net_state.begin_txn ctx.net;
      let plan = apply ctx ~billed:false winner in
      if claimed plan ~txn_open:true ~attempt:(fun () -> plan) then `Escalated
      else begin
        (* Under a fault guard the re-plan's transaction stays open as
           the round's. *)
        if guard = None then Net_state.commit ctx.net;
        `Commit plan
      end
    end
  in
  match outcome with
  | `Escalated ->
      escalation_round gd;
      (match round_sp with
      | Some sp ->
          Trace.finish sp ~attrs:[ ("escalated", Trace.Int winner.Event.id) ]
      | None -> ());
      promote st;
      release_held st
  | `Commit winner_plan ->
      let batch =
        match st.policy with
        | Policy.Plmtf _ ->
            (winner, winner_plan, false)
            :: co_schedule ctx ~winner ~winner_plan
                 (Array.to_list gp.gp_candidates)
        | _ -> [ (winner, winner_plan, false) ]
      in
      let round_units = ctx.units - gp.gp_units_before in
      let plan_time = Exec_model.plan_time ~work_units:round_units in
      let start_s = st.now +. plan_time in
      let timings =
        List.map
          (fun (ev, plan, co) ->
            (ev, plan, co, start_s +. Exec_model.execution_time plan))
          batch
      in
      let head_finish =
        List.fold_left
          (fun acc (_, _, co, c) -> if co then acc else max acc c)
          start_s timings
      in
      let executed_set = Hashtbl.create (List.length batch) in
      List.iter
        (fun (ev, _, _) -> Hashtbl.replace executed_set ev.Event.id ())
        batch;
      st.queue <-
        List.filter
          (fun ev -> not (Hashtbl.mem executed_set ev.Event.id))
          st.queue;
      (match guard with
      | Some fault_s when fault_s < head_finish ->
          abort_round gp ~fault_s ~round_sp timings
      | Some _ | None ->
          if guard <> None then Net_state.commit ctx.net;
          book_round gp ~start_s ~head_finish ~round_units ~round_sp timings);
      promote st;
      release_held st

let step_group ?escalate steppers =
  let n = Array.length steppers in
  if n = 0 then `Idle
  else begin
    let net0 = steppers.(0).ctx.net in
    Array.iter
      (fun st ->
        if st.ctx.net != net0 then
          invalid_arg "Engine.step_group: steppers must share one network")
      steppers;
    let pres = ref [] in
    Array.iteri
      (fun i st ->
        match pre_round ~solo:(n = 1) ~index:i st with
        | Some gp -> pres := gp :: !pres
        | None -> ())
      steppers;
    let pres = List.rev !pres in
    if pres = [] then `Idle
    else begin
      let costeds = probe_wave ~owner:steppers.(0) pres in
      let decisions =
        List.map2
          (fun gp costed ->
            let win_pr, winner = pick_winner costed in
            let ctx = gp.gp_st.ctx in
            {
              gd_pre = gp;
              gd_win = (win_pr, winner);
              gd_stamps =
                Array.map
                  (fun e -> (e, Net_state.edge_version ctx.net e))
                  win_pr.Planner.probe_touched;
              gd_epoch = Net_state.disabled_epoch ctx.net;
            })
          pres costeds
      in
      List.iter (commit_round ?escalate) decisions;
      `Stepped
    end
  end

(* One service round: the one-wide wave, including the leading
   empty-queue time jump and the trailing promotion of newly
   arrived/ready events. *)
let step st = step_group [| st |]

let make_stepper ?observer ctx policy events =
  let st =
    {
      ctx;
      policy;
      fault_mode = fault_mode_of ctx.injector;
      pending = List.sort Event.compare_by_arrival events;
      queue = [];
      held = [];
      now = 0.0;
      rounds = 0;
      results = [];
      log = [];
      observer;
    }
  in
  promote st;
  st

let run_event_level ctx policy events =
  let st = make_stepper ctx policy events in
  while step st <> `Idle do
    ()
  done;
  (st.results, st.rounds, List.rev st.log)

(* Flow-level baseline: the queue holds individual flows. *)
type flow_item = {
  fi_event : int;
  fi_arrival : float;
  fi_intra : int;
  fi_work : Event.work;
}

let flow_level_items order events =
  let items =
    List.concat_map
      (fun ev ->
        List.mapi
          (fun i w ->
            {
              fi_event = ev.Event.id;
              fi_arrival = ev.Event.arrival_s;
              fi_intra = i;
              fi_work = w;
            })
          ev.Event.work)
      events
  in
  let key item =
    match order with
    | Policy.Round_robin -> (item.fi_arrival, item.fi_intra, item.fi_event)
    | Policy.By_arrival -> (item.fi_arrival, item.fi_event, item.fi_intra)
  in
  List.sort (fun a b -> compare (key a) (key b)) items

let run_flow_level ctx order events =
  let items = ref (flow_level_items order events) in
  let now = ref 0.0 in
  let rounds = ref 0 in
  (* Per-event aggregation. *)
  let first_start = Hashtbl.create 64 in
  let last_completion = Hashtbl.create 64 in
  let cost = Hashtbl.create 64 in
  let units = Hashtbl.create 64 in
  let failed = Hashtbl.create 64 in
  let add tbl k v plus =
    Hashtbl.replace tbl k (match Hashtbl.find_opt tbl k with
      | None -> v
      | Some old -> plus old v)
  in
  while !items <> [] do
    match !items with
    | [] -> assert false
    | item :: rest ->
        items := rest;
        now := max !now item.fi_arrival;
        (* Flow-level runs take faults at item boundaries; there is no
           round transaction to abort, so no retry machinery either. *)
        (match ctx.injector with
        | Some inj ->
            let n = Injector.apply_due inj ctx.net ~now:!now in
            if n > 0 then ignore (Injector.check_now inj ctx.net ~now:!now)
        | None -> ());
        let round_sp =
          if Trace.enabled () then
            Some
              (Trace.span "round"
                 ~attrs:
                   [
                     ("event", Trace.Int item.fi_event);
                     ("intra", Trace.Int item.fi_intra);
                     ("start_s", Trace.Float !now);
                   ])
          else None
        in
        sync_background ctx !now;
        sample_series ctx ~round:!rounds ~t_s:!now
          ~queue_len:(List.length !items) ~retry_backlog:0;
        Counters.incr Counters.Engine_rounds;
        let pseudo =
          {
            Event.id = item.fi_event;
            arrival_s = item.fi_arrival;
            kind = Event.Additions;
            work = [ item.fi_work ];
          }
        in
        let plan = apply ctx ~billed:true pseudo in
        incr rounds;
        let plan_time =
          Exec_model.plan_time ~work_units:plan.Planner.work_units
        in
        let start_s = !now +. plan_time in
        let completion_s = start_s +. Exec_model.execution_time plan in
        schedule_departures ctx ~completion:completion_s plan;
        now := completion_s;
        add first_start item.fi_event start_s min;
        add last_completion item.fi_event completion_s max;
        add cost item.fi_event plan.Planner.cost_mbit ( +. );
        add units item.fi_event plan.Planner.work_units ( + );
        add failed item.fi_event plan.Planner.failed_count ( + );
        (match round_sp with
        | Some sp ->
            Trace.finish sp
              ~attrs:[ ("completion_s", Trace.Float completion_s) ]
        | None -> ())
  done;
  let results =
    List.map
      (fun ev ->
        let id = ev.Event.id in
        {
          event_id = id;
          arrival_s = ev.Event.arrival_s;
          start_s = (try Hashtbl.find first_start id with Not_found -> ev.Event.arrival_s);
          completion_s =
            (try Hashtbl.find last_completion id with Not_found -> ev.Event.arrival_s);
          cost_mbit = (try Hashtbl.find cost id with Not_found -> 0.0);
          plan_work_units = (try Hashtbl.find units id with Not_found -> 0);
          failed_items = (try Hashtbl.find failed id with Not_found -> 0);
          co_scheduled = false;
        })
      events
  in
  (results, !rounds, [])

(* Construct the per-run context. [init_expiry] registers departures for
   flows already in the network (churn runs); a checkpoint thaw passes
   false and restores the frozen expiry queue verbatim instead. *)
let make_ctx ~rng ~churn ~co_max_cost_mbit ~injector ~series
    ~domains ~init_expiry ~net =
  if domains < 1 then invalid_arg "Engine: domains must be >= 1";
  let ctx =
    {
      net;
      rng;
      churn;
      expiry = Pqueue.create ();
      co_max_cost_mbit;
      injector;
      series;
      domains;
      next_churn_id = (match churn with Some c -> c.first_id | None -> 0);
      units = 0;
      wall = 0.0;
      pool = None;
    }
  in
  (* Flows already in the network run out their remaining duration. *)
  (match churn with
  | Some _ when init_expiry ->
      Net_state.iter_flows net (fun placed ->
          Pqueue.push ctx.expiry placed.Net_state.record.Flow_record.duration_s
            placed.Net_state.record.Flow_record.id)
  | Some _ | None -> ());
  ctx

(* Stop and join the probe workers (idempotent; no-op when no batch
   ever fanned out). The worker domains spin between batches, so a
   long-lived stepper owner should close as soon as planning is done. *)
let close_ctx ctx =
  match ctx.pool with
  | Some p ->
      Probe_pool.shutdown p;
      ctx.pool <- None
  | None -> ()

(* Per-event distribution samples: service time (ECT) and queuing delay.
   One registry check when sampling is off. *)
let record_event_histograms events_arr =
  if Histogram.Registry.enabled () then
    Array.iter
      (fun r ->
        Histogram.Registry.record "engine.event_service_s" (ect r);
        Histogram.Registry.record "engine.event_queuing_s" (queuing_delay r))
      events_arr

let assemble_result ctx policy (results, rounds, rounds_log) =
  let events_arr = Array.of_list results in
  Array.sort (fun a b -> compare a.event_id b.event_id) events_arr;
  let makespan =
    Array.fold_left (fun acc r -> max acc r.completion_s) 0.0 events_arr
  in
  let total_cost =
    Array.fold_left (fun acc r -> acc +. r.cost_mbit) 0.0 events_arr
  in
  {
    policy;
    events = events_arr;
    rounds;
    rounds_log;
    total_plan_units = ctx.units;
    total_plan_time_s = Exec_model.plan_time ~work_units:ctx.units;
    total_cost_mbit = total_cost;
    makespan_s = makespan;
    final_fabric_utilization = Net_state.mean_fabric_utilization ctx.net;
    planning_wall_s = ctx.wall;
  }

let run ?(seed = 7) ?churn ?(co_max_cost_mbit = 0.0) ?injector ?series
    ?(domains = 1) ~net ~events policy =
  (match Policy.validate policy with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Engine.run: " ^ msg));
  let run_sp =
    if Trace.enabled () then
      Some
        (Trace.span "run"
           ~attrs:
             [
               ("policy", Trace.Str (Policy.name policy));
               ("events", Trace.Int (List.length events));
               ("seed", Trace.Int seed);
             ])
    else None
  in
  let ctx =
    make_ctx ~rng:(Prng.create seed) ~churn ~co_max_cost_mbit ~injector ~series
      ~domains ~init_expiry:true ~net
  in
  let outcome =
    Fun.protect
      ~finally:(fun () -> close_ctx ctx)
      (fun () ->
        match policy with
        | Policy.Flow_level order -> run_flow_level ctx order events
        | _ -> run_event_level ctx policy events)
  in
  let result = assemble_result ctx policy outcome in
  record_event_histograms result.events;
  (match run_sp with
  | Some sp ->
      Trace.finish sp
        ~attrs:
          [
            ("rounds", Trace.Int result.rounds);
            ("makespan_s", Trace.Float result.makespan_s);
            ("total_cost_mbit", Trace.Float result.total_cost_mbit);
            ("plan_units", Trace.Int result.total_plan_units);
            ( "fabric_utilization",
              Trace.Float result.final_fabric_utilization );
          ]
  | None -> ());
  result

(* ------------------------------------------------------------------ *)
(* Public incremental interface.                                       *)

module Stepper = struct
  type t = stepper

  let create ?(seed = 7) ?churn ?(co_max_cost_mbit = 0.0)
      ?injector ?series ?(domains = 1) ?(init_expiry = true) ?observer
      ?(events = []) ~net policy =
    (match Policy.validate policy with
    | Ok () -> ()
    | Error msg -> invalid_arg ("Engine.Stepper.create: " ^ msg));
    (match policy with
    | Policy.Flow_level _ ->
        invalid_arg "Engine.Stepper.create: flow-level policies are batch-only"
    | _ -> ());
    let ctx =
      make_ctx ~rng:(Prng.create seed) ~churn ~co_max_cost_mbit ~injector
        ~series ~domains ~init_expiry ~net
    in
    make_stepper ?observer ctx policy events

  (* New arrivals merge into the pending list at their arrival rank;
     events already due promote immediately so the next [step] sees
     them. Submitting every event up front and stepping to [`Idle] is
     bit-identical to the batch [run]. *)
  let submit st evs =
    if evs <> [] then begin
      st.pending <-
        List.merge Event.compare_by_arrival st.pending
          (List.sort Event.compare_by_arrival evs);
      promote st
    end

  let step = step
  let step_group = step_group

  let register_departures st ~completion plan =
    schedule_departures st.ctx ~completion plan

  let advance_clock st ~to_s = st.now <- Float.max st.now to_s

  let close st = close_ctx st.ctx
  let has_work st = st.queue <> [] || st.pending <> [] || st.held <> []

  let backlog st =
    List.length st.queue + List.length st.pending + List.length st.held

  let completed st = List.length st.results
  let now_s st = st.now

  let result st =
    assemble_result st.ctx st.policy (st.results, st.rounds, List.rev st.log)

  type frozen = {
    fz_policy : Policy.t;
    fz_pending : Event.t list;
    fz_queue : Event.t list;
    fz_held : (float * Event.t) list;
    fz_now : float;
    fz_rounds : int;
    fz_results : event_result list;  (* newest-first, as accumulated *)
    fz_log : round_info list;  (* newest-first, as accumulated *)
    fz_units : int;
    fz_next_churn_id : int;
    fz_expiry : (float * int) list;  (* exact pop order *)
    fz_rng : int64;
  }

  let freeze st =
    {
      fz_policy = st.policy;
      fz_pending = st.pending;
      fz_queue = st.queue;
      fz_held = st.held;
      fz_now = st.now;
      fz_rounds = st.rounds;
      fz_results = st.results;
      fz_log = st.log;
      fz_units = st.ctx.units;
      fz_next_churn_id = st.ctx.next_churn_id;
      fz_expiry = Pqueue.to_list st.ctx.expiry;
      fz_rng = Prng.raw_state st.ctx.rng;
    }

  let thaw ?churn ?(co_max_cost_mbit = 0.0) ?injector ?(domains = 1) ?observer
      ~net fz =
    let rng = Prng.of_raw_state fz.fz_rng in
    let ctx =
      make_ctx ~rng ~churn ~co_max_cost_mbit ~injector ~series:None ~domains
        ~init_expiry:false ~net
    in
    (* Restore the departure queue in pop order: pushing in that order
       reproduces the original pop sequence exactly (FIFO tie-break on
       insertion sequence). *)
    List.iter (fun (dep, id) -> Pqueue.push ctx.expiry dep id) fz.fz_expiry;
    ctx.next_churn_id <- fz.fz_next_churn_id;
    ctx.units <- fz.fz_units;
    {
      ctx;
      policy = fz.fz_policy;
      fault_mode = fault_mode_of injector;
      pending = fz.fz_pending;
      queue = fz.fz_queue;
      held = fz.fz_held;
      now = fz.fz_now;
      rounds = fz.fz_rounds;
      results = fz.fz_results;
      log = fz.fz_log;
      observer;
    }
end
