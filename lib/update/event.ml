type avoid = Unconstrained | Avoid_node of int | Avoid_edges of int list

type work =
  | Install of Flow_record.t
  | Reroute of { flow_id : int; avoid : avoid }

type kind =
  | Additions
  | Vm_migration
  | Switch_upgrade of int
  | Link_failure of int * int

let candidate_respects net c i = function
  | Unconstrained -> true
  | Avoid_node v ->
      let g = Net_state.graph net in
      Net_state.fold_hops c i ~init:true ~f:(fun ok e ->
          ok && Graph.src g e <> v && Graph.dst g e <> v)
  | Avoid_edges ids ->
      Net_state.fold_hops c i ~init:true ~f:(fun ok e ->
          ok && not (List.mem e ids))

type t = { id : int; arrival_s : float; kind : kind; work : work list }

let of_spec (spec : Event_gen.spec) =
  if spec.flows = [] then invalid_arg "Event.of_spec: empty flow list";
  {
    id = spec.event_id;
    arrival_s = spec.arrival_s;
    kind = Additions;
    work = List.map (fun f -> Install f) spec.flows;
  }

let of_specs specs = List.map of_spec specs

let vm_migration_event ~id ~arrival_s ~flows =
  if flows = [] then invalid_arg "Event.vm_migration_event: no flows";
  { id; arrival_s; kind = Vm_migration; work = List.map (fun f -> Install f) flows }

let switch_upgrade_event net ~id ~arrival_s ~switch =
  let crossing = Net_state.flows_through_node net switch in
  if crossing = [] then
    invalid_arg "Event.switch_upgrade_event: no flow crosses the switch";
  let work =
    List.map
      (fun (p : Net_state.placed) ->
        Reroute { flow_id = p.record.Flow_record.id; avoid = Avoid_node switch })
      crossing
  in
  { id; arrival_s; kind = Switch_upgrade switch; work }

let link_failure_event net ~id ~arrival_s ~edge =
  let g = Net_state.graph net in
  let e = Graph.edge g edge in
  let edges =
    match Graph.reverse_edge g e with
    | Some r -> [ e.Graph.id; r.Graph.id ]
    | None -> [ e.Graph.id ]
  in
  let crossing =
    List.sort_uniq compare
      (List.concat_map
         (fun eid ->
           List.map
             (fun (p : Net_state.placed) -> p.record.Flow_record.id)
             (Net_state.flows_on_edge net eid))
         edges)
  in
  if crossing = [] then
    invalid_arg "Event.link_failure_event: no flow crosses the link";
  let rev_id = match edges with [ _; r ] -> r | _ -> e.Graph.id in
  {
    id;
    arrival_s;
    kind = Link_failure (e.Graph.id, rev_id);
    work =
      List.map (fun flow_id -> Reroute { flow_id; avoid = Avoid_edges edges })
        crossing;
  }

let work_count t = List.length t.work

let compare_by_arrival a b =
  match compare a.arrival_s b.arrival_s with
  | 0 -> compare a.id b.id
  | c -> c
