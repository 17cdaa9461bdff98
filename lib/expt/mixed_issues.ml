(* The queue's make-up: 30 events, additions the largest share. *)
let n_additions = 12
let n_vm_migrations = 8
let n_switch_upgrades = 6
let n_link_failures = 4

let vm_flows rng ~host_count ~first_id ~n =
  List.init n (fun i ->
      let src = Prng.int rng host_count in
      let dst =
        let d = Prng.int rng (host_count - 1) in
        if d >= src then d + 1 else d
      in
      let demand = Prng.float_in rng 50.0 200.0 in
      let duration = Prng.float_in rng 10.0 40.0 in
      Flow_record.v ~id:(first_id + i) ~src ~dst
        ~size_mbit:(demand *. duration) ~duration_s:duration ~arrival_s:0.0)

let build_events (scenario : Scenario.t) ~seed =
  let rng = Prng.create seed in
  let net = Net_state.copy scenario.Scenario.net in
  let next_event = ref 0 in
  let fresh_event_id () =
    let id = !next_event in
    incr next_event;
    id
  in
  let additions =
    Event_gen.generate ~flow_params:Scenario.event_flow_params
      ~first_flow_id:1_000_000 rng ~host_count:scenario.Scenario.host_count
      ~n_events:n_additions
    |> Event.of_specs
    |> List.map (fun ev -> { ev with Event.id = fresh_event_id () })
  in
  let vm_events =
    List.init n_vm_migrations (fun i ->
        Event.vm_migration_event ~id:(fresh_event_id ()) ~arrival_s:0.0
          ~flows:
            (vm_flows rng ~host_count:scenario.Scenario.host_count
               ~first_id:(2_000_000 + (i * 100))
               ~n:(Prng.int_in rng 3 8)))
  in
  (* Switch upgrades over distinct aggregation switches with traffic. *)
  let ft = scenario.Scenario.fat_tree in
  let upgrade_events =
    let made = ref [] in
    let attempts = ref 0 in
    while List.length !made < n_switch_upgrades && !attempts < 64 do
      incr attempts;
      let pod = Prng.int rng (Fat_tree.k ft) in
      let j = Prng.int rng (Fat_tree.k ft / 2) in
      let switch = Fat_tree.aggregation ft ~pod j in
      let already =
        List.exists
          (fun ev ->
            match ev.Event.kind with
            | Event.Switch_upgrade s -> s = switch
            | _ -> false)
          !made
      in
      if (not already) && Net_state.flows_through_node net switch <> [] then
        made :=
          Event.switch_upgrade_event net ~id:(fresh_event_id ()) ~arrival_s:0.0
            ~switch
          :: !made
    done;
    List.rev !made
  in
  (* Link failures: disable distinct busy fabric links, then build the
     evacuation events. *)
  let failure_events =
    let fabric_edges = Array.of_list (Net_state.fabric_edges net) in
    let made = ref [] in
    let attempts = ref 0 in
    while List.length !made < n_link_failures && !attempts < 64 do
      incr attempts;
      let edge = fabric_edges.(Prng.int rng (Array.length fabric_edges)) in
      if
        (not (Net_state.edge_disabled net edge))
        && Net_state.flows_on_edge net edge <> []
      then begin
        Net_state.disable_edge net edge;
        (match Graph.reverse_edge (Net_state.graph net) (Graph.edge (Net_state.graph net) edge) with
        | Some r -> Net_state.disable_edge net r.Graph.id
        | None -> ());
        made :=
          Event.link_failure_event net ~id:(fresh_event_id ()) ~arrival_s:0.0
            ~edge
          :: !made
      end
    done;
    List.rev !made
  in
  (* Interleave the kinds deterministically so the queue alternates. *)
  let all = additions @ vm_events @ upgrade_events @ failure_events in
  let arr = Array.of_list all in
  Prng.shuffle rng arr;
  let events =
    Array.to_list arr
    |> List.mapi (fun i ev -> { ev with Event.id = i })
  in
  (events, net)

let run ?(seed = 42) ?(alpha = Policy.default_alpha) () =
  (* Switch upgrades evacuate a quarter of a pod's uplink capacity into
     the remaining aggregation switches, which is only satisfiable when
     they have headroom: the mixed experiment therefore runs at 50%
     utilisation (a realistic maintenance window), not the 70% of the
     addition-only figures. *)
  let scenario = Scenario.prepare ~utilization:0.50 ~seed () in
  let events, net = build_events scenario ~seed:(seed + 1) in
  let by_kind kind_name pred =
    let n = List.length (List.filter pred events) in
    Printf.printf "  %-16s %d events\n" kind_name n
  in
  print_endline "## Extension: mixed update-issue queue";
  by_kind "additions" (fun ev -> ev.Event.kind = Event.Additions);
  by_kind "vm-migrations" (fun ev -> ev.Event.kind = Event.Vm_migration);
  by_kind "switch-upgrades" (fun ev ->
      match ev.Event.kind with Event.Switch_upgrade _ -> true | _ -> false);
  by_kind "link-failures" (fun ev ->
      match ev.Event.kind with Event.Link_failure _ -> true | _ -> false);
  let summaries =
    List.map
      (fun policy ->
        Metrics.of_run
          (Engine.run ~seed:(seed + 2) ~net:(Net_state.copy net) ~events policy))
      [ Policy.Fifo; Policy.Lmtf { alpha }; Policy.Plmtf { alpha } ]
  in
  List.iter (fun s -> Format.printf "%a@." Metrics.pp_summary s) summaries;
  match summaries with
  | baseline :: others ->
      Format.printf "%a@." (fun ppf -> Metrics.pp_comparison ppf ~baseline) others
  | [] -> ()
