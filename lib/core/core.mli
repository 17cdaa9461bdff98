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
    {- fault injection and recovery: {!Fault_model}, {!Retry_policy},
       {!Injector}, {!Invariant}, {!Recovery};}
    {- inter-event scheduling: {!Policy}, {!Exec_model}, {!Engine},
       {!Metrics};}
    {- online serving, one controller or N over one fabric:
       {!Serve} (the one-shard {!Shard_fabric}), {!Admission},
       {!Journal}, {!Serve_source}, {!Serve_checkpoint},
       {!Shard_partition}, {!Shard_coord}.}}

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
(** Deterministic storage-fault injection (torn writes, bit flips,
    short reads, ENOSPC, fsync loss, kills) for the durable serving
    store. *)

module Policy = Nu_sched.Policy
module Exec_model = Nu_sched.Exec_model
module Engine = Nu_sched.Engine
module Probe_pool = Nu_sched.Probe_pool
module Metrics = Nu_sched.Metrics
module Run_report = Nu_sched.Run_report
module Run_digest = Nu_sched.Run_digest

module Serve = Nu_serve.Serve
(** Online serving: the batch engine as a long-running controller with
    admission control, durable checkpoints and deterministic replay. *)

module Serve_request = Nu_serve.Request
module Admission = Nu_serve.Admission
module Journal = Nu_serve.Journal
module Serve_source = Nu_serve.Source
module Serve_checkpoint = Nu_serve.Checkpoint
module Serve_codec = Nu_serve.Codec

module Serve_telemetry = Nu_serve.Telemetry
(** Live serving telemetry: request lifecycle stamps, per-tenant
    fairness/SLO tracking and OpenMetrics exposition. *)

module Supervisor = Nu_serve.Supervisor
(** Bounded-restart supervision of the serving loop: checkpoint-chain
    fallback, tolerant journal replay, classified failures, recovery
    log digest. *)

module Shard_partition = Nu_serve.Partition
(** Deterministic region-keyed partition map: which shard controller
    owns which slice of the fabric. *)

module Shard_coord = Nu_serve.Coord
(** Global coordinator two-phase-committing cross-shard migration
    sets against the shared fabric. *)

module Shard_fabric = Nu_serve.Shard_fabric
(** The serving driver: N planners over one fabric, synchronised
    waves, weighted-fair drain, checkpoint chain, crash recovery.
    {!Serve} is its one-shard case. *)

module Obs = Nu_obs
(** Observability: {!Nu_obs.Trace} spans, {!Nu_obs.Counters},
    {!Nu_obs.Export} (JSONL / Chrome-trace) and the {!Nu_obs.Json}
    codec. *)

(** Canned experiment scenarios: a loaded Fat-Tree plus generator
    plumbing, so quickstarts and benches need three calls, not thirty. *)
module Scenario : sig
  type t = {
    fat_tree : Fat_tree.t;
    topology : Topology.t;
    net : Net_state.t;  (** Loaded with background traffic. *)
    rng : Prng.t;  (** Stream for workload generation. *)
    host_count : int;
    background_report : Background.report;
  }

  type background = Yahoo | Benson
  (** Which synthetic trace fills the background (paper Fig. 1 uses
      both). *)

  val prepare :
    ?k:int ->
    ?utilization:float ->
    ?seed:int ->
    ?background:background ->
    unit ->
    t
  (** Build a k-ary Fat-Tree (default 8, the paper's setting), fill it
      with background traffic to the fabric-utilisation target (default
      0.70) using random-fit (ECMP-like) spreading under the access cap.
      Fully deterministic in [seed]. *)

  val event_flow_params : Benson_trace.params
  (** Flow characteristics of generated update events: the Benson
      mixture with elephants capped at 100 Mbps (paper §V-A). *)

  val events :
    ?shape:Event_gen.shape ->
    ?arrivals:Event_gen.arrival_process ->
    t ->
    n:int ->
    Event.t list
  (** Generate the update-event queue (default: heterogeneous 10-100
      flow events, all queued at t = 0). Flow ids are namespaced above
      the background's. *)

  val churn : ?target:float -> ?seed:int -> t -> Engine.churn
  (** Background-churn configuration for {!Engine.run}: flows expire
      after their duration and the fill replenishes to [target] (default
      0.70). Seeded explicitly so different policies compared on copies
      of one scenario see the same churn process. *)
end
