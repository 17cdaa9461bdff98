let default_usable (_ : Graph.edge) = true

(* Traversals walk the CSR rows through [Graph.iter_out]/[iter_in] —
   edge ids only, no per-visit list materialisation. The [usable]
   callback still receives the edge record for API compatibility. *)

(* One BFS from [src]; returns the hop-distance array (-1 = unreachable). *)
let distances g usable src =
  let n = Graph.node_count g in
  let dist = Array.make n (-1) in
  dist.(src) <- 0;
  let q = Queue.create () in
  Queue.push src q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    Graph.iter_out g v (fun id ->
        let w = Graph.dst g id in
        if dist.(w) < 0 && usable (Graph.edge g id) then begin
          dist.(w) <- dist.(v) + 1;
          Queue.push w q
        end)
  done;
  dist

let distance g ?(usable = default_usable) ~src ~dst () =
  let dist = distances g usable src in
  if dist.(dst) < 0 then None else Some dist.(dst)

let shortest_path g ?(usable = default_usable) ~src ~dst () =
  if src = dst then None
  else begin
    let n = Graph.node_count g in
    let parent_edge = Array.make n (-1) in
    let seen = Array.make n false in
    seen.(src) <- true;
    let q = Queue.create () in
    Queue.push src q;
    let found = ref false in
    while (not !found) && not (Queue.is_empty q) do
      let v = Queue.pop q in
      Graph.iter_out g v (fun id ->
          let w = Graph.dst g id in
          if (not seen.(w)) && usable (Graph.edge g id) then begin
            seen.(w) <- true;
            parent_edge.(w) <- id;
            if w = dst then found := true;
            Queue.push w q
          end)
    done;
    if not seen.(dst) then None
    else begin
      let rec collect v acc =
        let id = parent_edge.(v) in
        if id < 0 then acc
        else
          let e = Graph.edge g id in
          collect e.Graph.src (e :: acc)
      in
      Some (Path.make g (collect dst []))
    end
  end
