let hop_weight (_ : Graph.edge) = 1.0

let k_shortest g ?(weight = hop_weight) ~k ~src ~dst () =
  if k <= 0 || src = dst then []
  else begin
    match Dijkstra.shortest_path g ~weight ~src ~dst () with
    | None -> []
    | Some first ->
        let accepted = ref [ first ] in
        (* Candidate pool keyed by weight; entries also carry the path's
           edge ids for duplicate suppression. *)
        let candidates = Pqueue.create () in
        let seen = Hashtbl.create 64 in
        Hashtbl.replace seen (Path.edge_ids (fst first)) ();
        let add_candidate (p, w) =
          let key = Path.edge_ids p in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.replace seen key ();
            Pqueue.push candidates w (p, w)
          end
        in
        let path_weight p =
          List.fold_left (fun acc e -> acc +. weight e) 0.0 (Path.edges p)
        in
        let rec fill () =
          if List.length !accepted < k then begin
            let prev_path = fst (List.hd !accepted) in
            let prev_edges = Array.of_list (Path.edges prev_path) in
            let prev_nodes = Array.of_list (Path.nodes prev_path) in
            (* For each spur node on the last accepted path, remove the
               edges that previous accepted paths share on that prefix and
               the prefix nodes themselves, then search a spur path. *)
            for i = 0 to Array.length prev_edges - 1 do
              let spur_node = prev_nodes.(i) in
              let root_edges = Array.sub prev_edges 0 i in
              let root_edge_list = Array.to_list root_edges in
              let banned_edges = Hashtbl.create 16 in
              List.iter
                (fun (p, _) ->
                  let edges = Path.edges p in
                  let rec shares_prefix remaining candidate =
                    match (remaining, candidate) with
                    | [], e :: _ -> Some e
                    | r :: rr, c :: cc when r == c || (r : Graph.edge).id = c.Graph.id ->
                        shares_prefix rr cc
                    | _ -> None
                  in
                  match shares_prefix root_edge_list edges with
                  | Some (e : Graph.edge) -> Hashtbl.replace banned_edges e.id ()
                  | None -> ())
                !accepted;
              let banned_nodes = Hashtbl.create 16 in
              for j = 0 to i - 1 do
                Hashtbl.replace banned_nodes prev_nodes.(j) ()
              done;
              let usable' (e : Graph.edge) =
                (not (Hashtbl.mem banned_edges e.id))
                && (not (Hashtbl.mem banned_nodes e.src))
                && not (Hashtbl.mem banned_nodes e.dst)
              in
              match
                Dijkstra.shortest_path g ~usable:usable' ~weight ~src:spur_node
                  ~dst ()
              with
              | None -> ()
              | Some (spur, _) -> (
                  let full_edges = root_edge_list @ Path.edges spur in
                  match Path.make g full_edges with
                  | p -> add_candidate (p, path_weight p)
                  | exception Invalid_argument _ -> ())
            done;
            match Pqueue.pop candidates with
            | None -> ()
            | Some (_, entry) ->
                accepted := entry :: !accepted;
                fill ()
          end
        in
        fill ();
        List.rev !accepted
  end
