type transition = {
  flow_id : int;
  old_path : Path.t option;
  new_path : Path.t;
  old_version : int;
  new_version : int;
}

let transition_of fabric ~flow_id ~old_path ~new_path =
  let ingress = Path.src new_path in
  match Switch_table.stamp (Fabric.table fabric ingress) ~flow_id with
  | Some v -> { flow_id; old_path; new_path; old_version = v; new_version = v + 1 }
  | None -> { flow_id; old_path; new_path; old_version = 0; new_version = 0 }

let transitions_of_plan fabric (plan : Nu_update.Planner.t) =
  List.concat_map
    (fun (item : Nu_update.Planner.item_plan) ->
      let moves =
        match item.Nu_update.Planner.outcome with
        | Nu_update.Planner.Installed { moves; _ }
        | Nu_update.Planner.Rerouted { moves; _ } ->
            List.map
              (fun (m : Nu_update.Migration.move) ->
                transition_of fabric ~flow_id:m.Nu_update.Migration.flow_id
                  ~old_path:(Some m.Nu_update.Migration.from_path)
                  ~new_path:m.Nu_update.Migration.to_path)
              moves
        | Nu_update.Planner.Failed _ -> []
      in
      let own =
        match (item.Nu_update.Planner.outcome, item.Nu_update.Planner.work) with
        | Nu_update.Planner.Installed { path; _ }, Nu_update.Event.Install r ->
            [ transition_of fabric ~flow_id:r.Flow_record.id ~old_path:None
                ~new_path:path ]
        | ( Nu_update.Planner.Rerouted { from_path; to_path; _ },
            Nu_update.Event.Reroute { flow_id; _ } ) ->
            [ transition_of fabric ~flow_id ~old_path:(Some from_path)
                ~new_path:to_path ]
        | _ -> []
      in
      moves @ own)
    plan.Nu_update.Planner.items

type stats = {
  transitions : int;
  rules_installed : int;
  rules_removed : int;
  peak_extra_rules : int;
  flips : int;
}

let stage fabric transitions =
  let before = Fabric.total_rules fabric in
  List.iter
    (fun tr ->
      Fabric.install_path_rules fabric ~flow_id:tr.flow_id
        ~version:tr.new_version tr.new_path)
    transitions;
  Fabric.total_rules fabric - before

let flip fabric tr =
  (* One atomic write at the (new) ingress. For a rerouted flow whose
     ingress moved (it cannot in this model: paths share endpoints), the
     old stamp would be cleared here too. *)
  Fabric.set_ingress fabric ~flow_id:tr.flow_id
    ~ingress:(Path.src tr.new_path) ~version:tr.new_version

let collect fabric tr =
  match tr.old_path with
  | None -> 0
  | Some old_path ->
      if tr.old_version = tr.new_version then 0
      else begin
        let before = Fabric.total_rules fabric in
        Fabric.uninstall_path_rules fabric ~flow_id:tr.flow_id
          ~version:tr.old_version old_path;
        before - Fabric.total_rules fabric
      end

let execute fabric transitions =
  let base = Fabric.total_rules fabric in
  let rules_installed = stage fabric transitions in
  let peak_extra_rules = Fabric.total_rules fabric - base in
  List.iter (flip fabric) transitions;
  let rules_removed =
    List.fold_left (fun acc tr -> acc + collect fabric tr) 0 transitions
  in
  {
    transitions = List.length transitions;
    rules_installed;
    rules_removed;
    peak_extra_rules;
    flips = List.length transitions;
  }

type install_fault =
  switch:int -> flow_id:int -> [ `Drop | `Delay of float ] option

type fault_report = {
  stats : stats;
  dropped_flow_ids : int list;
  delayed_hops : int;
  extra_latency_s : float;
}

(* Per-hop verdicts for one transition's staging: how many installs the
   fabric dropped, how many acked late and by how much. *)
let hop_faults ~fault tr =
  List.fold_left
    (fun (drops, delays, delay_s) (e : Graph.edge) ->
      match fault ~switch:e.Graph.src ~flow_id:tr.flow_id with
      | Some `Drop -> (drops + 1, delays, delay_s)
      | Some (`Delay d) -> (drops, delays + 1, delay_s +. d)
      | None -> (drops, delays, delay_s))
    (0, 0, 0.0) (Path.edges tr.new_path)

let execute_with_faults fabric ~fault transitions =
  let base = Fabric.total_rules fabric in
  (* Stage everything first, mirroring [execute], then roll back every
     transition with a dropped install: the controller never flips a
     flow whose new rules are not all acknowledged, so a faulted flow
     keeps its old configuration verbatim — old rules, old ingress
     stamp — and per-packet consistency is preserved. Late acks only
     stretch the stage phase; the flip still happens. *)
  let staged =
    List.map
      (fun tr ->
        let before = Fabric.total_rules fabric in
        Fabric.install_path_rules fabric ~flow_id:tr.flow_id
          ~version:tr.new_version tr.new_path;
        let installed = Fabric.total_rules fabric - before in
        let drops, delays, delay_s = hop_faults ~fault tr in
        (tr, installed, drops, delays, delay_s))
      transitions
  in
  let peak_extra_rules = Fabric.total_rules fabric - base in
  let ok, dropped =
    List.partition (fun (_, _, drops, _, _) -> drops = 0) staged
  in
  List.iter
    (fun (tr, _, _, _, _) ->
      Fabric.uninstall_path_rules fabric ~flow_id:tr.flow_id
        ~version:tr.new_version tr.new_path)
    dropped;
  List.iter (fun (tr, _, _, _, _) -> flip fabric tr) ok;
  let rules_removed =
    List.fold_left (fun acc (tr, _, _, _, _) -> acc + collect fabric tr) 0 ok
  in
  {
    stats =
      {
        transitions = List.length transitions;
        rules_installed =
          List.fold_left (fun acc (_, n, _, _, _) -> acc + n) 0 ok;
        rules_removed;
        peak_extra_rules;
        flips = List.length ok;
      };
    dropped_flow_ids =
      List.map (fun (tr, _, _, _, _) -> tr.flow_id) dropped;
    delayed_hops =
      List.fold_left (fun acc (_, _, _, d, _) -> acc + d) 0 ok;
    extra_latency_s =
      List.fold_left (fun acc (_, _, _, _, s) -> acc +. s) 0.0 ok;
  }
