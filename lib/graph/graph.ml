type edge = { id : int; src : int; dst : int; capacity : float }

(* Flat CSR layout. Edge attributes live in struct-of-arrays columns
   ([esrc]/[edst]/[ecap]) indexed by dense edge id; adjacency is a
   compressed-sparse-row pair (offsets into a flat edge-id array, one
   row per node, insertion order inside each row) rebuilt lazily after
   appends. The [edges] record array is kept as a compatibility view so
   existing call sites (and tests) still receive [edge] records; hot
   loops in {!Nu_net} index the columns directly and never allocate. *)
type t = {
  mutable nodes : int;
  mutable edges : edge array;  (* used prefix is [0, n_edges) *)
  mutable n_edges : int;
  mutable esrc : int array;  (* edge id -> source node *)
  mutable edst : int array;  (* edge id -> destination node *)
  mutable ecap : float array;  (* edge id -> capacity, Mbit/s *)
  (* CSR adjacency; valid iff csr_edges = n_edges && csr_nodes = nodes. *)
  mutable csr_edges : int;
  mutable csr_nodes : int;
  mutable out_off : int array;  (* length nodes+1 *)
  mutable out_ids : int array;  (* length n_edges, grouped by src *)
  mutable in_off : int array;
  mutable in_ids : int array;
}

let dummy_edge = { id = -1; src = -1; dst = -1; capacity = 0.0 }

let create ?(initial_nodes = 0) () =
  if initial_nodes < 0 then invalid_arg "Graph.create";
  {
    nodes = initial_nodes;
    edges = Array.make 64 dummy_edge;
    n_edges = 0;
    esrc = Array.make 64 (-1);
    edst = Array.make 64 (-1);
    ecap = Array.make 64 0.0;
    csr_edges = -1;
    csr_nodes = -1;
    out_off = [||];
    out_ids = [||];
    in_off = [||];
    in_ids = [||];
  }

let node_count t = t.nodes
let edge_count t = t.n_edges

let add_edge t ~src ~dst ~capacity =
  if src < 0 || src >= t.nodes then invalid_arg "Graph.add_edge: src";
  if dst < 0 || dst >= t.nodes then invalid_arg "Graph.add_edge: dst";
  if capacity < 0.0 then invalid_arg "Graph.add_edge: capacity";
  let id = t.n_edges in
  if id = Array.length t.edges then begin
    let grow_rec a = Array.append a (Array.make id dummy_edge) in
    let grow_int a = Array.append a (Array.make id (-1)) in
    let grow_flt a = Array.append a (Array.make id 0.0) in
    t.edges <- grow_rec t.edges;
    t.esrc <- grow_int t.esrc;
    t.edst <- grow_int t.edst;
    t.ecap <- grow_flt t.ecap
  end;
  t.edges.(id) <- { id; src; dst; capacity };
  t.esrc.(id) <- src;
  t.edst.(id) <- dst;
  t.ecap.(id) <- capacity;
  t.n_edges <- id + 1;
  id

let add_link t ~a ~b ~capacity =
  let ab = add_edge t ~src:a ~dst:b ~capacity in
  let ba = add_edge t ~src:b ~dst:a ~capacity in
  (ab, ba)

let edge t id =
  if id < 0 || id >= t.n_edges then invalid_arg "Graph.edge: id out of range";
  t.edges.(id)

let src t id =
  if id < 0 || id >= t.n_edges then invalid_arg "Graph.src: id out of range";
  Array.unsafe_get t.esrc id

let dst t id =
  if id < 0 || id >= t.n_edges then invalid_arg "Graph.dst: id out of range";
  Array.unsafe_get t.edst id

let capacity t id =
  if id < 0 || id >= t.n_edges then
    invalid_arg "Graph.capacity: id out of range";
  Array.unsafe_get t.ecap id

(* Counting-sort CSR rebuild: stable in edge id, so each row lists its
   edges in insertion order — the order the old list-based adjacency
   exposed through [out_edges]/[in_edges]. Not domain-safe: callers must
   finish mutating the graph before sharing it across domains (freeze
   forces the rebuild up front). *)
let rebuild_csr t =
  let n = t.nodes and m = t.n_edges in
  let build_offsets endpoint =
    let off = Array.make (n + 1) 0 in
    for id = 0 to m - 1 do
      let v = endpoint.(id) in
      off.(v + 1) <- off.(v + 1) + 1
    done;
    for v = 1 to n do
      off.(v) <- off.(v) + off.(v - 1)
    done;
    off
  in
  let fill endpoint off =
    let cursor = Array.copy off in
    let ids = Array.make m (-1) in
    for id = 0 to m - 1 do
      let v = endpoint.(id) in
      ids.(cursor.(v)) <- id;
      cursor.(v) <- cursor.(v) + 1
    done;
    ids
  in
  let out_off = build_offsets t.esrc in
  t.out_ids <- fill t.esrc out_off;
  t.out_off <- out_off;
  let in_off = build_offsets t.edst in
  t.in_ids <- fill t.edst in_off;
  t.in_off <- in_off;
  t.csr_edges <- m;
  t.csr_nodes <- n

let[@inline] ensure_csr t =
  if t.csr_edges <> t.n_edges || t.csr_nodes <> t.nodes then rebuild_csr t

let freeze t = ensure_csr t

let iter_out t v f =
  if v < 0 || v >= t.nodes then invalid_arg "Graph.iter_out";
  ensure_csr t;
  let stop = t.out_off.(v + 1) in
  for k = t.out_off.(v) to stop - 1 do
    f (Array.unsafe_get t.out_ids k)
  done

let out_edges t v =
  if v < 0 || v >= t.nodes then invalid_arg "Graph.out_edges";
  ensure_csr t;
  let acc = ref [] in
  for k = t.out_off.(v + 1) - 1 downto t.out_off.(v) do
    acc := t.edges.(t.out_ids.(k)) :: !acc
  done;
  !acc

let in_edges t v =
  if v < 0 || v >= t.nodes then invalid_arg "Graph.in_edges";
  ensure_csr t;
  let acc = ref [] in
  for k = t.in_off.(v + 1) - 1 downto t.in_off.(v) do
    acc := t.edges.(t.in_ids.(k)) :: !acc
  done;
  !acc

let find_edge t ~src ~dst =
  if src < 0 || src >= t.nodes then -1
  else begin
    ensure_csr t;
    (* CSR rows are in insertion order, so the first match is the
       first-inserted edge. A top-level loop and an int result keep the
       lookup allocation-free. *)
    let found = ref (-1) and k = ref t.out_off.(src) in
    let stop = t.out_off.(src + 1) in
    while !found < 0 && !k < stop do
      let id = Array.unsafe_get t.out_ids !k in
      if Array.unsafe_get t.edst id = dst then found := id;
      incr k
    done;
    !found
  end

let iter_edges t f =
  for i = 0 to t.n_edges - 1 do
    f t.edges.(i)
  done

let fold_edges t ~init ~f =
  let acc = ref init in
  iter_edges t (fun e -> acc := f !acc e);
  !acc

let reverse_edge t e =
  match find_edge t ~src:e.dst ~dst:e.src with
  | -1 -> None
  | id -> Some t.edges.(id)

let total_capacity t =
  let acc = ref 0.0 in
  for i = 0 to t.n_edges - 1 do
    acc := !acc +. t.ecap.(i)
  done;
  !acc

let pp ppf t =
  Format.fprintf ppf "graph[%d nodes, %d edges, %.0f Mbps total]" t.nodes
    t.n_edges (total_capacity t)
