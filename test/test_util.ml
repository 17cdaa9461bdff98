(* Helpers shared by several suites. *)

(* The path through [nodes], one edge per consecutive pair: the node
   sequences fabrics document, as paths to compare with. *)
let path_of_nodes g nodes =
  let ns = Array.of_list nodes in
  Path.of_ids g
    (Array.init
       (Array.length ns - 1)
       (fun i -> Graph.find_edge g ~src:ns.(i) ~dst:ns.(i + 1)))

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
