type t = {
  name : string;
  graph : Graph.t;
  hosts : int array;
  switches : int array;
  attach : int array;
  up : int array;
  down : int array;
  interior_paths : src:int -> dst:int -> int array array;
  diameter : int;
}

let make ~name ~graph ~hosts ~switches ~interior_paths ~diameter =
  let n = Graph.node_count graph in
  let attach = Array.make n (-1) in
  let up = Array.make n (-1) and down = Array.make n (-1) in
  Array.iter
    (fun h ->
      Graph.iter_out graph h (fun id ->
          if up.(h) >= 0 then
            invalid_arg "Topology.make: a host has more than one link";
          up.(h) <- id);
      if up.(h) < 0 then invalid_arg "Topology.make: a host has no link";
      let sw = Graph.dst graph up.(h) in
      attach.(h) <- sw;
      down.(h) <- Graph.find_edge graph ~src:sw ~dst:h;
      if down.(h) < 0 then
        invalid_arg "Topology.make: a host's switch has no link back")
    hosts;
  { name; graph; hosts; switches; attach; up; down; interior_paths; diameter }

let host_count t = Array.length t.hosts
let is_host t v = t.attach.(v) >= 0

let validate t =
  let g = t.graph in
  let n = Graph.node_count g in
  let seen = Array.make n 0 in
  Array.iter (fun h -> seen.(h) <- seen.(h) + 1) t.hosts;
  Array.iter (fun s -> seen.(s) <- seen.(s) + 1) t.switches;
  let bad = ref None in
  Array.iteri
    (fun v c ->
      if c <> 1 && !bad = None then
        bad := Some (Printf.sprintf "node %d appears %d times" v c))
    seen;
  match !bad with
  | Some msg -> Error msg
  | None ->
      let edge_sw =
        List.sort_uniq compare
          (Array.to_list (Array.map (fun h -> t.attach.(h)) t.hosts))
      in
      let err = ref None in
      let check_pair src dst =
        if !err = None then begin
          match t.interior_paths ~src ~dst with
          | [||] ->
              err :=
                Some (Printf.sprintf "no candidate path %d -> %d" src dst)
          | paths ->
              Array.iter
                (fun ids ->
                  let at = ref src in
                  Array.iter
                    (fun id ->
                      if Graph.src g id <> !at then at := -1
                      else at := Graph.dst g id)
                    ids;
                  if !err = None && !at <> dst then
                    err :=
                      Some
                        (Printf.sprintf "an interior path %d -> %d is broken"
                           src dst))
                paths
        end
      in
      List.iter (fun a -> List.iter (fun b -> check_pair a b) edge_sw) edge_sw;
      (match !err with Some msg -> Error msg | None -> Ok ())

let pp ppf t =
  Format.fprintf ppf "%s[%d hosts, %d switches, %a, diameter %d]" t.name
    (host_count t) (Array.length t.switches) Graph.pp t.graph t.diameter
