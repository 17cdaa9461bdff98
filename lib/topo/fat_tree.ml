(* Node numbering (dense, by layer):
     [0, half^2)                         core switches
     [core_n, core_n + k*half)           aggregation (pod-major)
     [agg_off + k*half, ... + k*half)    edge (pod-major)
     [host_off, host_off + k^3/4)        hosts (edge-major)
   where half = k/2. *)

type t = {
  k : int;
  half : int;
  graph : Graph.t;
  agg_off : int;
  edge_off : int;
  host_off : int;
  node_total : int;
}

(* Mbit/s: every link is 1 Gbps. *)
let link_capacity = 1000.0

let create ?(k = 8) () =
  if k <= 0 || k mod 2 <> 0 then
    invalid_arg "Fat_tree.create: k must be a positive even integer";
  let half = k / 2 in
  let core_n = half * half in
  let agg_n = k * half and edge_n = k * half in
  let host_n = k * half * half in
  let node_total = core_n + agg_n + edge_n + host_n in
  let graph = Graph.create ~initial_nodes:node_total () in
  let agg_off = core_n in
  let edge_off = agg_off + agg_n in
  let host_off = edge_off + edge_n in
  let t = { k; half; graph; agg_off; edge_off; host_off; node_total } in
  let link a b = ignore (Graph.add_link graph ~a ~b ~capacity:link_capacity) in
  for pod = 0 to k - 1 do
    for j = 0 to half - 1 do
      let agg = agg_off + (pod * half) + j in
      let edge = edge_off + (pod * half) + j in
      (* Intra-pod complete bipartite layer. *)
      for j' = 0 to half - 1 do
        link (agg_off + (pod * half) + j') edge
      done;
      (* Aggregation j uplinks to cores [j*half, (j+1)*half). *)
      for c = 0 to half - 1 do
        link ((j * half) + c) agg
      done;
      (* Hosts under this edge switch. *)
      for h = 0 to half - 1 do
        link edge (host_off + (((pod * half) + j) * half) + h)
      done
    done
  done;
  t

let k t = t.k
let host_count t = t.k * t.half * t.half
let switch_count t = (t.half * t.half) + (2 * t.k * t.half)

let aggregation t ~pod j =
  if pod < 0 || pod >= t.k || j < 0 || j >= t.half then
    invalid_arg "Fat_tree.aggregation";
  t.agg_off + (pod * t.half) + j

let edge t ~pod j =
  if pod < 0 || pod >= t.k || j < 0 || j >= t.half then
    invalid_arg "Fat_tree.edge";
  t.edge_off + (pod * t.half) + j

type node_kind = Core | Aggregation of int | Edge of int | Host of int

let kind t v =
  if v < 0 || v >= t.node_total then invalid_arg "Fat_tree.kind"
  else if v < t.agg_off then Core
  else if v < t.edge_off then Aggregation ((v - t.agg_off) / t.half)
  else if v < t.host_off then Edge ((v - t.edge_off) / t.half)
  else Host (v - t.host_off)

(* Id of the (known to exist) edge between two adjacent fabric nodes. *)
let hop t a b =
  match Graph.find_edge t.graph ~src:a ~dst:b with
  | -1 -> invalid_arg "Fat_tree.hop: nodes are not adjacent"
  | id -> id

let pod_of_edge t v =
  match kind t v with
  | Edge pod -> pod
  | _ -> invalid_arg "Fat_tree: not an edge switch"

(* Interior paths between two edge switches, each built straight into
   its id array: the per-aggregation hops are resolved once per pair,
   only the core hops once per path. *)
let interior_paths t ~src ~dst =
  let src_pod = pod_of_edge t src and dst_pod = pod_of_edge t dst in
  if src = dst then [| [||] |]
  else if src_pod = dst_pod then
    (* One path per aggregation switch of the shared pod. *)
    Array.init t.half (fun j ->
        let agg = aggregation t ~pod:src_pod j in
        [| hop t src agg; hop t agg dst |])
  else begin
    (* One path per (aggregation choice j, core under j) pair, j-major. *)
    let paths = Array.make (t.half * t.half) [||] in
    for j = 0 to t.half - 1 do
      let agg_up = aggregation t ~pod:src_pod j in
      let agg_down = aggregation t ~pod:dst_pod j in
      let to_agg = hop t src agg_up in
      let from_agg = hop t agg_down dst in
      for c = 0 to t.half - 1 do
        let core_sw = (j * t.half) + c in
        paths.((j * t.half) + c) <-
          [| to_agg; hop t agg_up core_sw; hop t core_sw agg_down; from_agg |]
      done
    done;
    paths
  end

let to_topology t =
  Topology.make
    ~name:(Printf.sprintf "fat-tree(k=%d)" t.k)
    ~graph:t.graph
    ~hosts:(Array.init (host_count t) (fun i -> t.host_off + i))
    ~switches:(Array.init (switch_count t) (fun i -> i))
    ~interior_paths:(fun ~src ~dst -> interior_paths t ~src ~dst)
    ~diameter:6
