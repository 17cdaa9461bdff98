let default_usable (_ : Graph.edge) = true

let shortest_path g ?(usable = default_usable) ~weight ~src ~dst () =
  if src = dst then None
  else begin
    let n = Graph.node_count g in
    let dist = Array.make n infinity in
    let parent_edge : Graph.edge option array = Array.make n None in
    let settled = Array.make n false in
    dist.(src) <- 0.0;
    let pq = Pqueue.create () in
    Pqueue.push pq 0.0 src;
    let rec run () =
      match Pqueue.pop pq with
      | None -> ()
      | Some (d, v) ->
          if not settled.(v) then begin
            settled.(v) <- true;
            if v <> dst then begin
              Graph.iter_out g v (fun id ->
                  let e = Graph.edge g id in
                  if usable e && not settled.(e.dst) then begin
                    let w = weight e in
                    if w < 0.0 then
                      invalid_arg "Dijkstra.shortest_path: negative weight";
                    let nd = d +. w in
                    if nd < dist.(e.dst) then begin
                      dist.(e.dst) <- nd;
                      parent_edge.(e.dst) <- Some e;
                      Pqueue.push pq nd e.dst
                    end
                  end);
              run ()
            end
          end
          else run ()
    in
    run ();
    if dist.(dst) = infinity then None
    else begin
      let rec collect v acc =
        match parent_edge.(v) with
        | None -> acc
        | Some e -> collect e.src (e :: acc)
      in
      Some (Path.make g (collect dst []), dist.(dst))
    end
  end
