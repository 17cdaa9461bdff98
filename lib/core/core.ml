(** Event-level network update: public facade.

    One-stop module re-exporting the whole stack. Downstream users can
    depend on [core] alone and reach every layer:

    {ul
    {- randomness and statistics: {!Prng}, {!Dist}, {!Descriptive}, {!Cdf};}
    {- network graph: {!Graph}, {!Path}, {!Dijkstra}, {!Yen}, {!Pqueue};}
    {- fabrics: {!Topology}, {!Fat_tree}, {!Leaf_spine};}
    {- traffic: {!Flow_record}, {!Ip_map}, {!Yahoo_trace}, {!Benson_trace},
       {!Event_gen};}
    {- network state: {!Net_state}, {!Routing}, {!Background};}
    {- the paper's contribution: {!Event}, {!Migration}, {!Planner},
       {!Ordering};}
    {- inter-event scheduling: {!Policy}, {!Exec_model}, {!Engine},
       {!Metrics};}
    {- online serving: {!Serve}, {!Admission}, {!Journal},
       {!Serve_source}, {!Serve_checkpoint};}
    {- sharded multi-controller serving: {!Shard_partition},
       {!Shard_coord}, {!Shard_fabric}.}}

    The typical flow is {!Scenario.prepare} (build a loaded Fat-Tree),
    {!Scenario.events} (a workload), {!Engine.run} (simulate a policy),
    {!Metrics.of_run} (report). *)

module Prng = Nu_stats.Prng
module Dist = Nu_stats.Dist
module Descriptive = Nu_stats.Descriptive
module Cdf = Nu_stats.Cdf
module Graph = Nu_graph.Graph
module Path = Nu_graph.Path
module Dijkstra = Nu_graph.Dijkstra
module Yen = Nu_graph.Yen
module Pqueue = Nu_graph.Pqueue
module Topology = Nu_topo.Topology
module Fat_tree = Nu_topo.Fat_tree
module Leaf_spine = Nu_topo.Leaf_spine
module Jellyfish = Nu_topo.Jellyfish
module Flow_record = Nu_traffic.Flow_record
module Ip_map = Nu_traffic.Ip_map
module Yahoo_trace = Nu_traffic.Yahoo_trace
module Benson_trace = Nu_traffic.Benson_trace
module Event_gen = Nu_traffic.Event_gen
module Net_state = Nu_net.Net_state
module Routing = Nu_net.Routing
module Background = Nu_net.Background
module Event = Nu_update.Event
module Migration = Nu_update.Migration
module Planner = Nu_update.Planner
module Ordering = Nu_update.Ordering
module Fault_model = Nu_fault.Fault_model
module Retry_policy = Nu_fault.Retry_policy
module Injector = Nu_fault.Injector
module Invariant = Nu_fault.Invariant
module Recovery = Nu_fault.Recovery
module Store_fault = Nu_obs.Store_fault
module Policy = Nu_sched.Policy
module Exec_model = Nu_sched.Exec_model
module Engine = Nu_sched.Engine
module Probe_pool = Nu_sched.Probe_pool
module Metrics = Nu_sched.Metrics
module Run_digest = Nu_sched.Run_digest
module Run_report = Nu_sched.Run_report
module Serve = Nu_serve.Serve
module Serve_request = Nu_serve.Request
module Admission = Nu_serve.Admission
module Journal = Nu_serve.Journal
module Serve_source = Nu_serve.Source
module Serve_checkpoint = Nu_serve.Checkpoint
module Serve_codec = Nu_serve.Codec
module Serve_telemetry = Nu_serve.Telemetry
module Supervisor = Nu_serve.Supervisor
module Shard_partition = Nu_serve.Partition
module Shard_coord = Nu_serve.Coord
module Shard_fabric = Nu_serve.Shard_fabric
module Obs = Nu_obs

(** Canned experiment scenarios: a loaded Fat-Tree plus generator
    plumbing, so quickstarts and benches need three calls, not thirty. *)
module Scenario = struct
  type t = {
    fat_tree : Fat_tree.t;
    topology : Topology.t;
    net : Net_state.t;  (** Loaded with background traffic. *)
    rng : Prng.t;  (** Stream for workload generation. *)
    host_count : int;
    background_report : Background.report;
  }

  (* Host access links are capped during the fill so that update events
     contend on the fabric, where migration can actually help (an access
     link is every candidate path's first or last hop, so nothing can be
     migrated off it). The cap scales with the fabric target: high-
     utilisation sweeps (Fig. 7 goes to 90%) need access headroom too. *)
  let access_cap_for utilization = min 0.95 (max 0.75 (utilization +. 0.15))

  let accept_under_access_cap ~cap net (r : Flow_record.t) path =
    let d = Flow_record.demand_mbps r in
    let topo = Net_state.topology net in
    let g = Net_state.graph net in
    Array.for_all
      (fun id ->
        let touches_host =
          Topology.is_host topo (Graph.src g id)
          || Topology.is_host topo (Graph.dst g id)
        in
        (not touches_host)
        || (Net_state.used net id +. d) /. Graph.capacity g id <= cap)
      (Path.hop_ids path)

  type background = Yahoo | Benson

  let prepare ?(k = 8) ?(utilization = 0.70) ?(seed = 42)
      ?(background = Yahoo) () =
    let fat_tree = Fat_tree.create ~k () in
    let topology = Fat_tree.to_topology fat_tree in
    let net = Net_state.create topology in
    let rng = Prng.create seed in
    let host_count = Topology.host_count topology in
    let fill_rng = Prng.split rng in
    let make_flow =
      match background with
      | Yahoo ->
          fun ~id ~scale ->
            Background.yahoo_flow_maker fill_rng ~host_count ~id ~scale
      | Benson ->
          fun ~id ~scale ->
            Background.benson_flow_maker fill_rng ~host_count ~id ~scale
    in
    let background_report =
      (* The fill's random-fit placement mimics hash-based ECMP
         spreading; first-fit would concentrate the whole load on the
         first candidate paths and saturate a few links even at low mean
         utilisation. *)
      Background.fill net ~target:utilization ~rng:fill_rng
        ~utilization:Net_state.mean_fabric_utilization
        ~accept:
          (accept_under_access_cap ~cap:(access_cap_for utilization))
        ~make_flow ~first_id:0
    in
    { fat_tree; topology; net; rng; host_count; background_report }

  (* Update-event flows follow the paper's §V-A: Benson characteristics,
     with elephants capped so single flows stay below uncleared access
     headroom. *)
  let event_flow_params =
    {
      Benson_trace.default_params with
      Benson_trace.elephant_demand_hi_mbps = 100.0;
    }

  let events ?(shape = Event_gen.Heterogeneous) ?(arrivals = Event_gen.Batch)
      t ~n =
    Event_gen.generate ~shape ~arrivals ~flow_params:event_flow_params
      ~first_flow_id:1_000_000 t.rng ~host_count:t.host_count ~n_events:n
    |> Event.of_specs

  (* Background churn regenerates Yahoo!-style flows; ids live far above
     both background and event flows. The stream is seeded explicitly
     (not split from the scenario rng) so different policies compared on
     copies of one scenario see the *same* churn process. *)
  let churn ?(target = 0.70) ?(seed = 4242) t =
    let churn_rng = Prng.create seed in
    {
      Engine.make_flow =
        (fun ~id ->
          Yahoo_trace.next churn_rng ~host_count:t.host_count ~id
            ~after_s:0.0);
      target_utilization = target;
      max_placements_per_round = 200;
      first_id = 10_000_000;
    }
end
