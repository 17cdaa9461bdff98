type action =
  | Link_down of int
  | Link_up of int
  | Switch_down of int
  | Switch_up of int
  | Degrade of { edge : int; lost_mbps : float }
  | Restore of int

type fault = { at_s : float; action : action }
type schedule = fault list


type config = {
  rate_per_s : float;
  horizon_s : float;
  repair_s : float;
  degrade_frac : float;
}

let default_config =
  { rate_per_s = 0.2; horizon_s = 40.0; repair_s = 5.0; degrade_frac = 0.5 }

(* Relative weights of the three fault kinds: link down/up, switch
   down/up and degrade/restore pairs. *)
let link_weight = 3.0
let switch_weight = 1.0
let degrade_weight = 2.0

(* Fabric edges (both endpoints switches) and non-host nodes, straight
   from the topology — the generator must not depend on live state. *)
let fault_targets (topo : Topology.t) =
  let g = topo.Topology.graph in
  let host = Array.make (Graph.node_count g) false in
  Array.iter (fun h -> host.(h) <- true) topo.Topology.hosts;
  let fabric =
    Graph.fold_edges g ~init:[] ~f:(fun acc (e : Graph.edge) ->
        if host.(e.src) || host.(e.dst) then acc else e.id :: acc)
    |> List.rev |> Array.of_list
  in
  let switches = ref [] in
  for v = Graph.node_count g - 1 downto 0 do
    if not host.(v) then switches := v :: !switches
  done;
  (fabric, Array.of_list !switches)

let generate ?(config = default_config) ~seed topo =
  if config.rate_per_s < 0.0 || config.horizon_s < 0.0 then
    invalid_arg "Fault_model.generate: negative rate or horizon";
  let fabric, switches = fault_targets topo in
  let n = int_of_float ((config.rate_per_s *. config.horizon_s) +. 0.5) in
  if n = 0 || Array.length fabric = 0 || Array.length switches = 0 then []
  else begin
    let rng = Prng.create seed in
    let g = topo.Topology.graph in
    let total = link_weight +. switch_weight +. degrade_weight in
    let faults = ref [] in
    for _ = 1 to n do
      let at_s = Prng.float rng config.horizon_s in
      let up_s = at_s +. config.repair_s in
      let w = Prng.float rng total in
      let pair =
        if w < link_weight then begin
          let e = Prng.choose rng fabric in
          [ { at_s; action = Link_down e }; { at_s = up_s; action = Link_up e } ]
        end
        else if w < link_weight +. switch_weight then begin
          let v = Prng.choose rng switches in
          [
            { at_s; action = Switch_down v };
            { at_s = up_s; action = Switch_up v };
          ]
        end
        else begin
          let e = Prng.choose rng fabric in
          let lost_mbps =
            (Graph.edge g e).Graph.capacity
            *. max 0.0 (min 1.0 config.degrade_frac)
          in
          [
            { at_s; action = Degrade { edge = e; lost_mbps } };
            { at_s = up_s; action = Restore e };
          ]
        end
      in
      faults := List.rev_append pair !faults
    done;
    (* Stable sort: equal times keep generation order, so the schedule
       is a pure function of (seed, topology, config). *)
    List.stable_sort
      (fun a b -> compare a.at_s b.at_s)
      (List.rev !faults)
  end

let action_tag = function
  | Link_down _ -> 1
  | Link_up _ -> 2
  | Switch_down _ -> 3
  | Switch_up _ -> 4
  | Degrade _ -> 5
  | Restore _ -> 6

let subject = function
  | Link_down e | Link_up e | Degrade { edge = e; _ } | Restore e -> e
  | Switch_down v | Switch_up v -> v

let pp_action ppf = function
  | Link_down e -> Format.fprintf ppf "link-down(%d)" e
  | Link_up e -> Format.fprintf ppf "link-up(%d)" e
  | Switch_down v -> Format.fprintf ppf "switch-down(%d)" v
  | Switch_up v -> Format.fprintf ppf "switch-up(%d)" v
  | Degrade { edge; lost_mbps } ->
      Format.fprintf ppf "degrade(%d,-%.0fMbps)" edge lost_mbps
  | Restore e -> Format.fprintf ppf "restore(%d)" e
