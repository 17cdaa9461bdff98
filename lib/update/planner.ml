module Trace = Nu_obs.Trace
module Counters = Nu_obs.Counters
module Histogram = Nu_obs.Histogram

type admission = Desired_first | Scan_first

let admission_name = function
  | Desired_first -> "desired-first"
  | Scan_first -> "scan-first"

type config = {
  policy : Routing.policy;
  order : Migration.order;
  admission : admission;
}

let default_config =
  {
    policy = Routing.First_fit;
    order = Migration.Best_fit_first;
    admission = Desired_first;
  }

(* Candidate paths tried with migration before an item fails. *)
let max_clear_attempts = 4

type failure_reason =
  | No_candidate_path
  | Could_not_free
  | Flow_not_placed
  | Already_placed

type outcome =
  | Installed of { path : Path.t; moves : Migration.move list }
  | Rerouted of {
      from_path : Path.t;
      to_path : Path.t;
      moves : Migration.move list;
    }
  | Failed of failure_reason

type item_plan = { work : Event.work; outcome : outcome }

type t = {
  event : Event.t;
  items : item_plan list;
  cost_mbit : float;
  move_count : int;
  failed_count : int;
  transfer_mbit : float;
  rule_hops : int;
  work_units : int;
}

(* Candidate indices ordered by how much migration they would need:
   the sum of positive capacity gaps is a cheap proxy for the migrated
   traffic a clearing will cost (paper: prefer the desired path needing
   the least local adjustment). Ties keep the ranked candidate order. *)
let rank_by_gap net ~demand c idxs =
  let gap_of i =
    Net_state.fold_hops c i ~init:0.0 ~f:(fun acc e ->
        acc +. max 0.0 (demand -. Net_state.residual net e))
  in
  List.stable_sort
    (fun (a, _) (b, _) -> Float.compare a b)
    (List.map (fun i -> (gap_of i, i)) idxs)
  |> List.map snd

(* Shared admission machinery over the flow's candidate view (indices
   into {!Net_state.candidates}; a full path is built only to place,
   reroute or clear it): [direct] tries to place/reroute on one
   congestion-free candidate; [clear_then_commit] migrates existing
   flows off a path, then commits. The admission mode decides the order
   in which the desired candidate, the remaining free candidates, and
   migration clearing are attempted. *)
let plan_install ~config ~work_units ~exclude net record =
  let demand = Flow_record.demand_mbps record in
  if Net_state.is_placed net record.Flow_record.id then Failed Already_placed
  else
  let c = Net_state.candidates net record in
  match Net_state.candidate_count c with
  | 0 -> Failed No_candidate_path
  | n ->
      let all = List.init n Fun.id in
      let install path moves =
        match Net_state.place net record path with
        | Ok () -> Some (Installed { path; moves })
        | Error _ -> assert false
      in
      let direct_on i =
        incr work_units;
        if Net_state.candidate_feasible net c i ~demand then
          install (Net_state.candidate_path net c i) []
        else None
      in
      let scan_free () =
        incr work_units;
        match Routing.select_from ~policy:config.policy net ~demand c with
        | -1 -> None
        | i -> install (Net_state.candidate_path net c i) []
      in
      let clear_list idxs =
        let rec try_clear = function
          | [] -> None
          | i :: rest -> (
              let path = Net_state.candidate_path net c i in
              match
                Migration.clear_path ~order:config.order ~policy:config.policy
                  ~work_units net ~demand ~path ~exclude
              with
              | Error _ -> try_clear rest
              | Ok moves -> install path moves (* clear_path guarantees room *))
        in
        try_clear idxs
      in
      let ranked_clears () =
        let ranked = rank_by_gap net ~demand c all in
        List.filteri (fun i _ -> i < max_clear_attempts) ranked
      in
      let attempt_sequence =
        match config.admission with
        | Desired_first ->
            (* The paper's order: desired path direct, then local
               migration on the desired path, then the other free
               candidates, then migration on the cheapest other paths. *)
            let d = Routing.desired record c in
            [
              (fun () -> direct_on d);
              (fun () -> clear_list [ d ]);
              scan_free;
              (fun () ->
                clear_list (List.filter (fun i -> i <> d) (ranked_clears ())));
            ]
        | Scan_first -> [ scan_free; (fun () -> clear_list (ranked_clears ())) ]
      in
      let rec run = function
        | [] -> Failed Could_not_free
        | step :: rest -> ( match step () with Some o -> o | None -> run rest)
      in
      run attempt_sequence

let plan_reroute ~config ~work_units ~exclude net ~flow_id ~avoid =
  match Net_state.flow net flow_id with
  | None -> Failed Flow_not_placed
  | Some placed ->
      let demand = Flow_record.demand_mbps placed.record in
      let c = Net_state.candidates net placed.record in
      let candidates =
        List.filter
          (fun i ->
            Event.candidate_respects net c i avoid
            && not (Net_state.candidate_is c i placed.path))
          (List.init (Net_state.candidate_count c) Fun.id)
      in
      if candidates = [] then Failed No_candidate_path
      else begin
        (* Reroute releases the flow's own usage itself, so direct
           attempts just call it. *)
        let direct i =
          incr work_units;
          let cand = Net_state.candidate_path net c i in
          match Net_state.reroute net flow_id cand with
          | Ok from_path -> Some (Rerouted { from_path; to_path = cand; moves = [] })
          | Error _ -> None
        in
        let rec direct_list = function
          | [] -> None
          | i :: rest -> (
              match direct i with Some o -> Some o | None -> direct_list rest)
        in
        (* The flow being rerouted must not be migrated to make room for
           itself. *)
        let exclude' id = id = flow_id || exclude id in
        let clear_list idxs =
          let rec try_clear = function
            | [] -> None
            | i :: rest -> (
                let path = Net_state.candidate_path net c i in
                match
                  Migration.clear_path ~order:config.order ~policy:config.policy
                    ~forbidden:(fun c' j ->
                      not (Event.candidate_respects net c' j avoid))
                    ~work_units net ~demand ~path ~exclude:exclude'
                with
                | Error _ -> try_clear rest
                | Ok moves -> (
                    incr work_units;
                    match Net_state.reroute net flow_id path with
                    | Ok from_path -> Some (Rerouted { from_path; to_path = path; moves })
                    | Error _ ->
                        (* clear_path freed the gap measured against the
                           full demand, so reroute (which also releases
                           the flow's own share) cannot fail. *)
                        assert false))
          in
          try_clear idxs
        in
        let ranked_clears () =
          let ranked = rank_by_gap net ~demand c candidates in
          List.filteri (fun i _ -> i < max_clear_attempts) ranked
        in
        let attempt_sequence =
          match config.admission with
          | Desired_first ->
              let d =
                List.nth candidates
                  (Routing.ecmp_index placed.record
                     ~n:(List.length candidates))
              in
              [
                (fun () -> direct d);
                (fun () -> clear_list [ d ]);
                (fun () -> direct_list (List.filter (fun i -> i <> d) candidates));
                (fun () ->
                  clear_list (List.filter (fun i -> i <> d) (ranked_clears ())));
              ]
          | Scan_first ->
              [
                (fun () -> direct_list candidates);
                (fun () -> clear_list (ranked_clears ()));
              ]
        in
        let rec run = function
          | [] -> Failed Could_not_free
          | step :: rest -> (
              match step () with Some o -> o | None -> run rest)
        in
        run attempt_sequence
      end

let plan ?(config = default_config) ?(frozen = fun _ -> false) net event =
  let sp =
    if Trace.enabled () then
      Some
        (Trace.span "plan"
           ~attrs:
             [
               ("event", Trace.Int event.Event.id);
               ("items", Trace.Int (List.length event.Event.work));
             ])
    else None
  in
  let h_on = Histogram.Registry.enabled () in
  let h_t0 = if h_on then Trace.now_ns () else 0L in
  let work_units = ref 0 in
  let touched = Hashtbl.create 64 in
  let exclude id = frozen id || Hashtbl.mem touched id in
  let items =
    List.map
      (fun work ->
        let outcome =
          match work with
          | Event.Install record ->
              let o =
                plan_install ~config ~work_units ~exclude net record
              in
              (match o with
              | Installed _ -> Hashtbl.replace touched record.Flow_record.id ()
              | _ -> ());
              o
          | Event.Reroute { flow_id; avoid } ->
              let o =
                plan_reroute ~config ~work_units ~exclude net ~flow_id
                  ~avoid
              in
              (match o with
              | Rerouted _ -> Hashtbl.replace touched flow_id ()
              | _ -> ());
              o
        in
        (* Make-room moves also become untouchable for later items. *)
        (match outcome with
        | Installed { moves; _ } | Rerouted { moves; _ } ->
            List.iter
              (fun (m : Migration.move) -> Hashtbl.replace touched m.flow_id ())
              moves
        | Failed _ -> ());
        { work; outcome })
      event.Event.work
  in
  let cost_mbit, move_count, failed_count, transfer_mbit, rule_hops =
    List.fold_left
      (fun (cost, mc, fc, tv, rh) item ->
        match item.outcome with
        | Installed { path; moves } ->
            ( cost +. Migration.moves_cost_mbit moves,
              mc + List.length moves,
              fc,
              tv +. Migration.moves_cost_mbit moves,
              rh + Path.hops path
              + List.fold_left
                  (fun acc (m : Migration.move) -> acc + Path.hops m.to_path)
                  0 moves )
        | Rerouted { from_path = _; to_path; moves } ->
            let own_size =
              match item.work with
              | Event.Reroute { flow_id; _ } -> (
                  match Net_state.flow net flow_id with
                  | Some placed -> placed.record.Flow_record.size_mbit
                  | None -> 0.0)
              | Event.Install _ -> 0.0
            in
            ( cost +. Migration.moves_cost_mbit moves,
              mc + List.length moves,
              fc,
              tv +. Migration.moves_cost_mbit moves +. own_size,
              rh + Path.hops to_path
              + List.fold_left
                  (fun acc (m : Migration.move) -> acc + Path.hops m.to_path)
                  0 moves )
        | Failed _ -> (cost, mc, fc + 1, tv, rh))
      (0.0, 0, 0, 0.0, 0) items
  in
  let t =
    {
      event;
      items;
      cost_mbit;
      move_count;
      failed_count;
      transfer_mbit;
      rule_hops;
      work_units = !work_units;
    }
  in
  Counters.incr Counters.Planner_plans;
  Counters.add Counters.Planner_probes t.work_units;
  if h_on then begin
    Histogram.Registry.record "planner.plan_latency_s"
      (Int64.to_float (Int64.sub (Trace.now_ns ()) h_t0) *. 1e-9);
    Histogram.Registry.record "planner.moves_per_event"
      (float_of_int t.move_count)
  end;
  (match sp with
  | Some sp ->
      Trace.finish sp
        ~attrs:
          [
            ("cost_mbit", Trace.Float t.cost_mbit);
            ("moves", Trace.Int t.move_count);
            ("failed", Trace.Int t.failed_count);
            ("units", Trace.Int t.work_units);
          ]
  | None -> ());
  t

let replay net plan =
  Counters.incr Counters.Plan_replays;
  let replay_move (m : Migration.move) =
    match Net_state.reroute net m.Migration.flow_id m.Migration.to_path with
    | Ok _ -> ()
    | Error _ -> invalid_arg "Planner.replay: state diverged (move)"
  in
  List.iter
    (fun item ->
      match item.outcome with
      | Failed _ -> ()
      | Installed { path; moves } -> (
          List.iter replay_move moves;
          match item.work with
          | Event.Install record -> (
              match Net_state.place net record path with
              | Ok () -> ()
              | Error _ -> invalid_arg "Planner.replay: state diverged (install)")
          | Event.Reroute _ -> assert false)
      | Rerouted { to_path; moves; _ } -> (
          List.iter replay_move moves;
          match item.work with
          | Event.Reroute { flow_id; _ } -> (
              match Net_state.reroute net flow_id to_path with
              | Ok _ -> ()
              | Error _ -> invalid_arg "Planner.replay: state diverged (reroute)")
          | Event.Install _ -> assert false))
    plan.items

type estimate = {
  est_cost_mbit : float;
  est_failed : int;
  est_work_units : int;
}

let estimate_of p =
  {
    est_cost_mbit = p.cost_mbit;
    est_failed = p.failed_count;
    est_work_units = p.work_units;
  }

type probe = {
  probe_est : estimate;
  probe_plan : t;
  probe_touched : int array;
}

let probe net event =
  Counters.incr Counters.Cost_estimates;
  let sp =
    if Trace.enabled () then
      Some
        (Trace.span "estimate" ~attrs:[ ("event", Trace.Int event.Event.id) ])
    else None
  in
  let h_on = Histogram.Registry.enabled () in
  let h_t0 = if h_on then Trace.now_ns () else 0L in
  (* Plan speculatively inside a transaction: the undo journal restores
     the state in O(operations performed). The probe bracket records
     every edge the plan read or wrote, which is what makes the plan
     replayable. *)
  Net_state.start_probe net;
  Net_state.begin_txn net;
  let p = plan net event in
  Net_state.rollback net;
  let touched = Net_state.stop_probe net in
  let est = estimate_of p in
  if h_on then
    Histogram.Registry.record "planner.probe_latency_s"
      (Int64.to_float (Int64.sub (Trace.now_ns ()) h_t0) *. 1e-9);
  (match sp with
  | Some sp ->
      Trace.finish sp
        ~attrs:
          [
            ("est_cost_mbit", Trace.Float est.est_cost_mbit);
            ("est_failed", Trace.Int est.est_failed);
            ("units", Trace.Int est.est_work_units);
            ("touched_edges", Trace.Int (Array.length touched));
          ]
  | None -> ());
  { probe_est = est; probe_plan = p; probe_touched = touched }

let pp ppf t =
  Format.fprintf ppf
    "plan[event#%d: %d items, cost %.1f Mbit, %d moves, %d failed, %d units]"
    t.event.Event.id (List.length t.items) t.cost_mbit t.move_count
    t.failed_count t.work_units
