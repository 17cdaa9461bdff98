(* The schedulers are fabric-agnostic: everything above Topology.t works
   unchanged on other fabrics. This example runs the same FIFO / LMTF /
   P-LMTF comparison the quickstart runs on the Fat-Tree, first on a
   two-tier leaf-spine Clos, then on a Jellyfish random graph whose
   candidate paths are found by Yen's k-shortest-path search instead of
   an analytic ECMP formula.

   Run with: dune exec examples/leaf_spine_fabric.exe *)

let compare_policies ~seed net events =
  let summaries =
    List.map
      (fun policy ->
        Metrics.of_run
          (Engine.run ~seed ~net:(Net_state.copy net) ~events policy))
      [ Policy.Fifo; Policy.Lmtf { alpha = 4 }; Policy.Plmtf { alpha = 4 } ]
  in
  List.iter (fun s -> Format.printf "%a@." Metrics.pp_summary s) summaries;
  match summaries with
  | baseline :: others ->
      Format.printf "%a@." (fun ppf -> Metrics.pp_comparison ppf ~baseline) others
  | [] -> ()

let run_fabric ~seed topo =
  (match Topology.validate topo with Ok () -> () | Error e -> failwith e);
  Format.printf "@.fabric: %a@." Topology.pp topo;
  let net = Net_state.create topo in
  let rng = Prng.create seed in
  let host_count = Topology.host_count topo in
  (* Keep host access links under 75% so update events contend on the
     fabric (an access link can never be cleared by migration). *)
  let accept net (r : Flow_record.t) path =
    let d = Flow_record.demand_mbps r in
    List.for_all
      (fun (e : Graph.edge) ->
        (not (Topology.is_host topo e.Graph.src || Topology.is_host topo e.Graph.dst))
        || (Net_state.used net e.Graph.id +. d) /. e.Graph.capacity <= 0.75)
      (Path.edges path)
  in
  let report =
    Background.fill net ~target:0.6 ~rng ~accept
      ~utilization:Net_state.mean_fabric_utilization
      ~make_flow:(fun ~id ~scale ->
        Background.benson_flow_maker rng ~host_count ~id ~scale)
      ~first_id:0
  in
  Format.printf "background: %d flows, fabric utilisation %.0f%%@."
    report.Background.placed
    (100.0 *. report.Background.achieved_utilization);
  let events =
    Event_gen.generate ~first_flow_id:1_000_000 rng ~host_count ~n_events:15
    |> Event.of_specs
  in
  compare_policies ~seed:(seed + 1) net events

let () =
  run_fabric ~seed:5
    (Leaf_spine.to_topology
       (Leaf_spine.create ~leaves:8 ~spines:4 ~hosts_per_leaf:16
          ~leaf_spine_capacity:4000.0 ~host_capacity:1000.0 ()));
  run_fabric ~seed:6
    (Jellyfish.to_topology
       (Jellyfish.create ~switches:24 ~ports_per_switch:10
          ~inter_switch_ports:5 ~seed:77 ()))
