(* Ordering an update event's migrations: the event-level planner
   decides WHAT moves where; the Dionysus-style ordering (paper citation
   [9]) decides which moves can run concurrently without overloading a
   link while the update is in flight.

   The example plans one update event, splits its make-room migrations
   into dependency rounds against the pre-plan state, and replays the
   rounds with Ordering.verify: every move must fit when its round
   starts (a congestion-free transition). It exits non-zero on a
   deadlock or a failed verify.

   Run with: dune exec examples/move_ordering.exe *)

let () =
  let scenario = Scenario.prepare ~utilization:0.70 ~seed:51 () in
  let net = scenario.Scenario.net in
  let pre_state = Net_state.copy net in

  (* One update event. *)
  let event = List.hd (Scenario.events ~shape:(Event_gen.Range (20, 30)) scenario ~n:1) in
  let plan = Planner.plan net event in
  Format.printf "%a@." Planner.pp plan;

  (* Dependency rounds of the make-room migrations (from the pre-plan
     state): how parallelisable is this event's execution? *)
  let moves =
    List.concat_map
      (fun (item : Planner.item_plan) ->
        match item.Planner.outcome with
        | Planner.Installed { moves; _ } | Planner.Rerouted { moves; _ } -> moves
        | Planner.Failed _ -> [])
      plan.Planner.items
  in
  match Ordering.schedule pre_state (Ordering.of_moves moves) with
  | Error (Ordering.Deadlock blocked) ->
      Format.eprintf "ordering deadlock on %d moves@." (List.length blocked);
      exit 1
  | Error (Ordering.Unknown_flow id) ->
      Format.eprintf "ordering: unknown flow %d@." id;
      exit 1
  | Ok s -> (
      Format.printf "%a@." Ordering.pp_schedule s;
      match Ordering.verify pre_state s with
      | Ok () ->
          Format.printf
            "congestion-free transition: %d move(s) in %d round(s) verified@."
            (List.length moves) s.Ordering.depth
      | Error e ->
          Format.eprintf "ordering verify failed: %s@." e;
          exit 1)
