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
  max_clear_attempts : int;
}

let default_config =
  {
    policy = Routing.First_fit;
    order = Migration.Best_fit_first;
    admission = Desired_first;
    max_clear_attempts = 4;
  }

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

(* Candidate paths ordered by how much migration they would need: the sum
   of positive capacity gaps is a cheap proxy for the migrated traffic a
   clearing will cost (paper: prefer the desired path needing the least
   local adjustment). Ties keep the ranked candidate order. *)
let rank_by_gap net ~demand candidates =
  let gap_of p =
    List.fold_left
      (fun acc (e : Graph.edge) ->
        acc +. max 0.0 (Net_state.capacity_gap net e ~demand))
      0.0 (Path.edges p)
  in
  List.stable_sort
    (fun (a, _) (b, _) -> Float.compare a b)
    (List.map (fun p -> (gap_of p, p)) candidates)
  |> List.map snd

(* Shared admission machinery: [direct] tries to place/reroute on one
   congestion-free path; [clear_then_commit] migrates existing flows off
   a path, then commits. The admission mode decides the order in which
   the desired path, the remaining free candidates, and migration
   clearing are attempted. *)
let plan_install ?rng ~config ~work_units ~exclude net record =
  let demand = Flow_record.demand_mbps record in
  if Net_state.is_placed net record.Flow_record.id then Failed Already_placed
  else
  let candidates = Net_state.candidate_paths net record in
  match candidates with
  | [] -> Failed No_candidate_path
  | _ ->
      let desired =
        Routing.nth_candidate candidates
          ~ecmp:(Routing.ecmp_index record ~n:(List.length candidates))
      in
      let direct_on path =
        incr work_units;
        if Net_state.path_feasible net path ~demand then (
          match Net_state.place net record path with
          | Ok () -> Some (Installed { path; moves = [] })
          | Error _ -> assert false)
        else None
      in
      let scan_free () =
        incr work_units;
        match Routing.select ?rng ~policy:config.policy net record with
        | Some path -> (
            match Net_state.place net record path with
            | Ok () -> Some (Installed { path; moves = [] })
            | Error _ -> assert false)
        | None -> None
      in
      let clear_list paths =
        let rec try_clear = function
          | [] -> None
          | path :: rest -> (
              match
                Migration.clear_path ~order:config.order ~policy:config.policy
                  ?rng ~work_units net ~demand ~path ~exclude
              with
              | Error _ -> try_clear rest
              | Ok moves -> (
                  match Net_state.place net record path with
                  | Ok () -> Some (Installed { path; moves })
                  | Error _ -> assert false (* clear_path guarantees room *)))
        in
        try_clear paths
      in
      let ranked_clears () =
        let ranked = rank_by_gap net ~demand candidates in
        List.filteri (fun i _ -> i < config.max_clear_attempts) ranked
      in
      let attempt_sequence =
        match (config.admission, desired) with
        | Desired_first, Some d ->
            (* The paper's order: desired path direct, then local
               migration on the desired path, then the other free
               candidates, then migration on the cheapest other paths. *)
            [
              (fun () -> direct_on d);
              (fun () -> clear_list [ d ]);
              scan_free;
              (fun () ->
                clear_list
                  (List.filter (fun p -> not (Path.equal p d)) (ranked_clears ())));
            ]
        | Desired_first, None | Scan_first, _ ->
            [ scan_free; (fun () -> clear_list (ranked_clears ())) ]
      in
      let rec run = function
        | [] -> Failed Could_not_free
        | step :: rest -> ( match step () with Some o -> o | None -> run rest)
      in
      run attempt_sequence

let plan_reroute ?rng ~config ~work_units ~exclude net ~flow_id ~avoid =
  match Net_state.flow net flow_id with
  | None -> Failed Flow_not_placed
  | Some placed ->
      let demand = Flow_record.demand_mbps placed.record in
      let candidates =
        List.filter
          (fun p -> Event.path_respects p avoid && not (Path.equal p placed.path))
          (Net_state.candidate_paths net placed.record)
      in
      if candidates = [] then Failed No_candidate_path
      else begin
        (* Reroute releases the flow's own usage itself, so direct
           attempts just call it. *)
        let direct cand =
          incr work_units;
          match Net_state.reroute net flow_id cand with
          | Ok from_path -> Some (Rerouted { from_path; to_path = cand; moves = [] })
          | Error _ -> None
        in
        let rec direct_list = function
          | [] -> None
          | cand :: rest -> (
              match direct cand with Some o -> Some o | None -> direct_list rest)
        in
        (* The flow being rerouted must not be migrated to make room for
           itself. *)
        let exclude' id = id = flow_id || exclude id in
        let clear_list paths =
          let rec try_clear = function
            | [] -> None
            | path :: rest -> (
                match
                  Migration.clear_path ~order:config.order ~policy:config.policy
                    ?rng
                    ~forbidden:(fun p -> not (Event.path_respects p avoid))
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
          try_clear paths
        in
        let ranked_clears () =
          let ranked = rank_by_gap net ~demand candidates in
          List.filteri (fun i _ -> i < config.max_clear_attempts) ranked
        in
        let desired =
          Routing.nth_candidate candidates
            ~ecmp:(Routing.ecmp_index placed.record ~n:(List.length candidates))
        in
        let attempt_sequence =
          match (config.admission, desired) with
          | Desired_first, Some d ->
              [
                (fun () -> direct d);
                (fun () -> clear_list [ d ]);
                (fun () ->
                  direct_list
                    (List.filter (fun p -> not (Path.equal p d)) candidates));
                (fun () ->
                  clear_list
                    (List.filter (fun p -> not (Path.equal p d)) (ranked_clears ())));
              ]
          | Desired_first, None | Scan_first, _ ->
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

let plan ?rng ?(config = default_config) ?(frozen = fun _ -> false) net event =
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
                plan_install ?rng ~config ~work_units ~exclude net record
              in
              (match o with
              | Installed _ -> Hashtbl.replace touched record.Flow_record.id ()
              | _ -> ());
              o
          | Event.Reroute { flow_id; avoid } ->
              let o =
                plan_reroute ?rng ~config ~work_units ~exclude net ~flow_id
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

let revert net plan =
  Counters.incr Counters.Plan_reverts;
  let sp =
    if Trace.enabled () then
      Some
        (Trace.span "revert" ~attrs:[ ("event", Trace.Int plan.event.Event.id) ])
    else None
  in
  (* Undo newest-first: each item's own action first, then its make-room
     moves, walking the item list backwards. *)
  List.iter
    (fun item ->
      (match item.outcome with
      | Installed { path = _; moves = _ } -> (
          match item.work with
          | Event.Install record -> (
              match Net_state.remove net record.Flow_record.id with
              | Ok _ -> ()
              | Error `Not_found -> assert false)
          | Event.Reroute _ -> assert false)
      | Rerouted { from_path; to_path = _; moves = _ } -> (
          match item.work with
          | Event.Reroute { flow_id; _ } -> (
              match Net_state.reroute ~admit_disabled:true net flow_id from_path with
              | Ok _ -> ()
              | Error _ -> assert false)
          | Event.Install _ -> assert false)
      | Failed _ -> ());
      match item.outcome with
      | Installed { moves; _ } | Rerouted { moves; _ } ->
          List.iter
            (fun (m : Migration.move) ->
              match
                Net_state.reroute ~admit_disabled:true net m.flow_id m.from_path
              with
              | Ok _ -> ()
              | Error _ -> assert false)
            (List.rev moves)
      | Failed _ -> ())
    (List.rev plan.items);
  match sp with Some sp -> Trace.finish sp | None -> ()

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

let probe ?rng ?config ?frozen net event =
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
     the state in O(operations performed), where the historical
     plan-then-revert pair re-ran every reroute through full feasibility
     checks. The probe bracket records every edge the plan read or
     wrote, which is what makes the plan replayable. *)
  Net_state.start_probe net;
  Net_state.begin_txn net;
  let p = plan ?rng ?config ?frozen net event in
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

let cost_of ?rng ?config ?frozen net event =
  (probe ?rng ?config ?frozen net event).probe_est

let pp ppf t =
  Format.fprintf ppf
    "plan[event#%d: %d items, cost %.1f Mbit, %d moves, %d failed, %d units]"
    t.event.Event.id (List.length t.items) t.cost_mbit t.move_count
    t.failed_count t.work_units
