type t = {
  graph : Graph.t;
  n_switches : int;
  r : int;  (* inter-switch ports per switch *)
  hosts_per_switch : int;
  host_off : int;
  k_paths : int;
}

(* One stub-matching attempt: pair up switch port stubs; return the edge
   list or None when the shuffle produced an unfixable collision. *)
let try_match rng ~n ~r =
  let stubs = Array.concat (List.init n (fun s -> Array.make r s)) in
  Nu_stats.Prng.shuffle rng stubs;
  let edges = Hashtbl.create (n * r) in
  let has a b = Hashtbl.mem edges (min a b, max a b) in
  let add a b = Hashtbl.replace edges (min a b, max a b) () in
  let m = Array.length stubs in
  let ok = ref true in
  let i = ref 0 in
  while !ok && !i + 1 < m do
    let a = stubs.(!i) in
    (* Find a later stub that forms a fresh, non-self edge and swap it
       into position i+1. *)
    let rec hunt j =
      if j >= m then None
      else if stubs.(j) <> a && not (has a stubs.(j)) then Some j
      else hunt (j + 1)
    in
    (match hunt (!i + 1) with
    | None -> ok := false
    | Some j ->
        let tmp = stubs.(!i + 1) in
        stubs.(!i + 1) <- stubs.(j);
        stubs.(j) <- tmp;
        add a stubs.(!i + 1));
    i := !i + 2
  done;
  if !ok then Some (Hashtbl.fold (fun (a, b) () acc -> (a, b) :: acc) edges [])
  else None

let connected ~n pairs =
  if n = 0 then true
  else begin
    let adj = Array.make n [] in
    List.iter
      (fun (a, b) ->
        adj.(a) <- b :: adj.(a);
        adj.(b) <- a :: adj.(b))
      pairs;
    let seen = Array.make n false in
    let rec dfs v =
      if not seen.(v) then begin
        seen.(v) <- true;
        List.iter dfs adj.(v)
      end
    in
    dfs 0;
    Array.for_all Fun.id seen
  end

let create ?(switches = 20) ?(ports_per_switch = 8) ?(inter_switch_ports = 4)
    ?(link_capacity = 1000.0) ?(candidate_paths_per_pair = 6) ~seed () =
  if inter_switch_ports <= 0 || inter_switch_ports >= ports_per_switch then
    invalid_arg "Jellyfish.create: inter_switch_ports";
  if switches <= inter_switch_ports then
    invalid_arg "Jellyfish.create: too few switches";
  if switches * inter_switch_ports mod 2 <> 0 then
    invalid_arg "Jellyfish.create: odd stub count";
  if link_capacity <= 0.0 then invalid_arg "Jellyfish.create: capacity";
  if candidate_paths_per_pair < 1 then
    invalid_arg "Jellyfish.create: candidate_paths_per_pair";
  let rng = Nu_stats.Prng.create seed in
  let hosts_per_switch = ports_per_switch - inter_switch_ports in
  let rec build attempt =
    if attempt > 200 then
      failwith "Jellyfish.create: could not build a connected regular graph"
    else
      match try_match rng ~n:switches ~r:inter_switch_ports with
      | Some pairs when connected ~n:switches pairs -> pairs
      | _ -> build (attempt + 1)
  in
  let pairs = build 0 in
  let host_off = switches in
  let graph =
    Graph.create ~initial_nodes:(switches + (switches * hosts_per_switch)) ()
  in
  List.iter
    (fun (a, b) -> ignore (Graph.add_link graph ~a ~b ~capacity:link_capacity))
    (List.sort compare pairs);
  for s = 0 to switches - 1 do
    for h = 0 to hosts_per_switch - 1 do
      ignore
        (Graph.add_link graph ~a:s
           ~b:(host_off + (s * hosts_per_switch) + h)
           ~capacity:link_capacity)
    done
  done;
  {
    graph;
    n_switches = switches;
    r = inter_switch_ports;
    hosts_per_switch;
    host_off;
    k_paths = candidate_paths_per_pair;
  }

let graph t = t.graph
let switch_count t = t.n_switches
let host_count t = t.n_switches * t.hosts_per_switch

let host t i =
  if i < 0 || i >= host_count t then invalid_arg "Jellyfish.host";
  t.host_off + i

(* Interior paths between two ToR switches: the k shortest loopless
   switch paths. Hosts are leaves, so these are exactly the host-pair
   Yen paths without their two access hops, in the same order. Not
   memoised here: the network state keeps the one memo. *)
let interior_paths t ~src ~dst =
  if src < 0 || src >= t.n_switches || dst < 0 || dst >= t.n_switches then
    invalid_arg "Jellyfish: not a switch";
  if src = dst then [| [||] |]
  else
    Yen.k_shortest t.graph ~k:t.k_paths ~src ~dst ()
    |> List.map (fun (p, _) -> Path.hop_ids p)
    |> Array.of_list

let to_topology t =
  Topology.make
    ~name:
      (Printf.sprintf "jellyfish(%d switches, r=%d, %d hosts)" t.n_switches
         t.r (host_count t))
    ~graph:t.graph
    ~hosts:(Array.init (host_count t) (fun i -> host t i))
    ~switches:(Array.init t.n_switches (fun i -> i))
    ~interior_paths:(fun ~src ~dst -> interior_paths t ~src ~dst)
      (* Random regular graphs have logarithmic diameter; hosts add two
         hops. A safe upper bound for r >= 3 at these sizes: *)
    ~diameter:(2 + 6)
