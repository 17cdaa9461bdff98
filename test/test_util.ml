(* Helpers shared by several suites. *)

(* The path through [nodes], one edge per consecutive pair: the node
   sequences fabrics document, as paths to compare with. *)
let path_of_nodes g nodes =
  let ns = Array.of_list nodes in
  Path.of_ids g
    (Array.init
       (Array.length ns - 1)
       (fun i -> Graph.find_edge g ~src:ns.(i) ~dst:ns.(i + 1)))

(* Whether [sub] occurs in [s]. *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* The k = 4 Fat-Tree: 16 hosts, 20 switches. *)
let topo4 () = Fat_tree.to_topology (Fat_tree.create ~k:4 ())

(* A flow of [demand] Mbps (default 50) for [duration] seconds. *)
let flow ?(id = 0) ?(demand = 50.0) ?(duration = 10.0) ?(arrival = 0.0) src dst
    =
  Flow_record.v ~id ~src ~dst ~size_mbit:(demand *. duration)
    ~duration_s:duration ~arrival_s:arrival

(* [topo4 ()] carrying eight inter-pod flows of [demand] Mbps, host
   [src] to host [15 - src] for [src] = 0..7, numbered from [first_id]
   and placed first-fit; a flow with no feasible path is skipped. *)
let loaded_net ?(demand = 300.0) ?(first_id = 1000) () =
  let net = Net_state.create (topo4 ()) in
  for src = 0 to 7 do
    let r = flow ~id:(first_id + src) ~demand src (15 - src) in
    match Routing.select net r with
    | Some p -> ( match Net_state.place net r p with Ok () -> () | Error _ -> ())
    | None -> ()
  done;
  net

(* One generated spec as an all-installs event. *)
let of_spec spec = List.hd (Event.of_specs [ spec ])

(* Every candidate of a record, built into its full path, in rank
   order. *)
let candidate_paths net record =
  let c = Net_state.candidates net record in
  List.init (Net_state.candidate_count c) (Net_state.candidate_path net c)

(* Index of [path] in the candidate view [c]; raises [Not_found]. *)
let candidate_index c path =
  let rec go i =
    if i >= Net_state.candidate_count c then raise Not_found
    else if Net_state.candidate_is c i path then i
    else go (i + 1)
  in
  go 0

(* [used / capacity] of an edge id. *)
let edge_utilization net id =
  Net_state.used net id /. Graph.capacity (Net_state.graph net) id

(* [topo4 ()] rebuilt from its links with every capacity multiplied by
   [s]: the links are added in edge-id order, so node and edge ids and
   the interior candidates are the original's. *)
let scaled_topo4 s =
  let t = topo4 () in
  let g = t.Topology.graph in
  let scaled = Graph.create ~initial_nodes:(Graph.node_count g) () in
  (* [add_link] appends a link's two directions as ids 2i and 2i + 1. *)
  for id = 0 to Graph.edge_count g - 1 do
    if id mod 2 = 0 then begin
      let fwd, _ =
        Graph.add_link scaled ~a:(Graph.src g id) ~b:(Graph.dst g id)
          ~capacity:(s *. Graph.capacity g id)
      in
      assert (fwd = id)
    end
  done;
  Graph.freeze scaled;
  Topology.make ~name:t.Topology.name ~graph:scaled ~hosts:t.Topology.hosts
    ~switches:t.Topology.switches ~interior_paths:t.Topology.interior_paths
    ~diameter:t.Topology.diameter

(* A k = 4 instance on an integer grid: 8-47 background flows of
   50-599 Mbps, then 5-15 events of 1-6 flows of 10-409 Mbps, all at
   t = 0. Flows are (src host, dst host, Mbps), src <> dst. *)
type grid_instance = {
  background : (int * int * int) list;
  grid_events : (int * int * int) list list;
}

let grid_instance seed =
  let rng = Prng.create seed in
  let flow ~lo ~span =
    let src = Prng.int rng 16 in
    let dst = (src + 1 + Prng.int rng 15) mod 16 in
    (src, dst, lo + Prng.int rng span)
  in
  let background =
    List.init (8 + Prng.int rng 40) (fun _ -> flow ~lo:50 ~span:550)
  in
  let grid_events =
    List.init (5 + Prng.int rng 11) (fun _ ->
        List.init (1 + Prng.int rng 6) (fun _ -> flow ~lo:10 ~span:400))
  in
  { background; grid_events }

(* The instance on [topology] with every demand multiplied by [s]: the
   background placed through [Routing.select] (a flow with no feasible
   candidate is skipped) and the events to run. One-second flows, so a
   flow's size is its demand. *)
let grid_net_and_events ~topology ~s inst =
  let record id (src, dst, mbps) =
    Flow_record.v ~id ~src ~dst ~size_mbit:(s *. float_of_int mbps)
      ~duration_s:1.0 ~arrival_s:0.0
  in
  let net = Net_state.create topology in
  List.iteri
    (fun i f ->
      let r = record (1_000_000 + i) f in
      match Routing.select net r with
      | Some path -> ignore (Net_state.place net r path : (unit, _) result)
      | None -> ())
    inst.background;
  let next = ref 0 in
  let events =
    List.mapi
      (fun event_id flows ->
        of_spec
          {
            Event_gen.event_id;
            arrival_s = 0.0;
            flows =
              List.map
                (fun f ->
                  incr next;
                  record !next f)
                flows;
          })
      inst.grid_events
  in
  (net, events)
