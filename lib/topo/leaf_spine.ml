(* Node numbering: [0, spines) spine switches, then leaves, then hosts
   (leaf-major). *)

type t = {
  graph : Graph.t;
  leaves : int;
  spines : int;
  hosts_per_leaf : int;
  leaf_off : int;
  host_off : int;
}

let create ?(leaves = 8) ?(spines = 4) ?(hosts_per_leaf = 16)
    ?(leaf_spine_capacity = 4000.0) ?(host_capacity = 1000.0) () =
  if leaves <= 0 || spines <= 0 || hosts_per_leaf <= 0 then
    invalid_arg "Leaf_spine.create: counts must be positive";
  if leaf_spine_capacity <= 0.0 || host_capacity <= 0.0 then
    invalid_arg "Leaf_spine.create: capacities must be positive";
  let node_total = spines + leaves + (leaves * hosts_per_leaf) in
  let graph = Graph.create ~initial_nodes:node_total () in
  let leaf_off = spines in
  let host_off = spines + leaves in
  for l = 0 to leaves - 1 do
    let leaf = leaf_off + l in
    for s = 0 to spines - 1 do
      ignore (Graph.add_link graph ~a:leaf ~b:s ~capacity:leaf_spine_capacity)
    done;
    for h = 0 to hosts_per_leaf - 1 do
      ignore
        (Graph.add_link graph ~a:leaf
           ~b:(host_off + (l * hosts_per_leaf) + h)
           ~capacity:host_capacity)
    done
  done;
  { graph; leaves; spines; hosts_per_leaf; leaf_off; host_off }

let graph t = t.graph
let leaves t = t.leaves
let spines t = t.spines
let host_count t = t.leaves * t.hosts_per_leaf

let host t i =
  if i < 0 || i >= host_count t then invalid_arg "Leaf_spine.host";
  t.host_off + i

let hop t a b =
  match Graph.find_edge t.graph ~src:a ~dst:b with
  | -1 -> invalid_arg "Leaf_spine.hop: nodes are not adjacent"
  | id -> id

(* Interior paths between two leaves: the empty one under a shared
   leaf, else one per spine. *)
let interior_paths t ~src ~dst =
  if src < t.leaf_off || src >= t.host_off || dst < t.leaf_off
     || dst >= t.host_off
  then invalid_arg "Leaf_spine: not a leaf";
  if src = dst then [| [||] |]
  else Array.init t.spines (fun s -> [| hop t src s; hop t s dst |])

let to_topology t =
  Topology.make
    ~name:
      (Printf.sprintf "leaf-spine(%dx%d,%d hosts/leaf)" t.leaves t.spines
         t.hosts_per_leaf)
    ~graph:t.graph
    ~hosts:(Array.init (host_count t) (fun i -> host t i))
    ~switches:(Array.init (t.spines + t.leaves) (fun i -> i))
    ~interior_paths:(fun ~src ~dst -> interior_paths t ~src ~dst)
    ~diameter:4
