(* Two flat arrays and nothing else: [ids] is the hot-path view
   {!Nu_net} walks with [for] loops, [earr] the graph's shared records
   (nodes derive from them), so polymorphic [=] on moves and placements
   stays cheap. Paths are short (fabric diameter), so membership tests
   are linear scans. *)
type t = {
  ids : int array;  (* edge ids, traversal order *)
  earr : Graph.edge array;  (* the graph's edge records, same order *)
}

let of_ids g ids =
  let n = Array.length ids in
  if n = 0 then invalid_arg "Path.make: empty";
  (* A loop rather than [Array.map (Graph.edge g)], whose partial
     application is a closure allocated per path. *)
  let earr = Array.make n (Graph.edge g ids.(0)) in
  for i = 1 to n - 1 do
    earr.(i) <- Graph.edge g ids.(i)
  done;
  for i = 0 to n - 1 do
    let e = earr.(i) in
    if i > 0 && e.src <> earr.(i - 1).dst then
      invalid_arg "Path.make: edges are not contiguous";
    (* Loop-free: [e.dst] is neither the source nor an earlier hop's dst. *)
    if e.dst = earr.(0).src then invalid_arg "Path.make: node loop";
    for j = 0 to i - 1 do
      if earr.(j).dst = e.dst then invalid_arg "Path.make: node loop"
    done
  done;
  { ids; earr }

let make g edges =
  of_ids g (Array.of_list (List.map (fun (e : Graph.edge) -> e.id) edges))

let edges t = Array.to_list t.earr
let src t = t.earr.(0).src
let dst t = t.earr.(Array.length t.earr - 1).dst
let edge_ids t = Array.to_list t.ids

let hop_ids t = t.ids

let nodes t =
  src t :: Array.fold_right (fun (e : Graph.edge) acc -> e.dst :: acc) t.earr []
let hops t = Array.length t.ids

(* Loops over a local ref, not local recursive functions: those would
   be closures allocated per call. *)
let mentions_edge t id =
  let ids = t.ids in
  let n = Array.length ids in
  let i = ref 0 in
  while !i < n && Array.unsafe_get ids !i <> id do
    incr i
  done;
  !i < n

let mentions_node t v =
  let es = t.earr in
  let n = Array.length es in
  let i = ref 0 in
  while !i < n && (Array.unsafe_get es !i).dst <> v do
    incr i
  done;
  src t = v || !i < n

(* Same order as the list-lexicographic compare the id lists used to
   have: element-wise first, a strict prefix sorts before its
   extension. (Plain polymorphic compare on arrays orders by length
   first, which would reorder Yen's dedup keys.) *)
let compare a b =
  let la = Array.length a.ids and lb = Array.length b.ids in
  let rec go i =
    if i = la then if i = lb then 0 else -1
    else if i = lb then 1
    else
      let c = Int.compare (Array.unsafe_get a.ids i) (Array.unsafe_get b.ids i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let equal a b =
  Array.length a.ids = Array.length b.ids && compare a b = 0

let pp ppf t =
  let ns = nodes t in
  Format.fprintf ppf "%a"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "->")
       Format.pp_print_int)
    ns
