(* nu_topo: Fat-Tree and leaf-spine fabrics, topology interface. *)

let ft4 () = Fat_tree.create ~k:4 ()
let ft8 () = Fat_tree.create ~k:8 ()

(* The candidate set of an ordered host pair (node ids), as the planner
   sees it: the network state's candidate view over the topology, every
   candidate built into its full path. *)
let candidates_of (topo : Topology.t) =
  let net = Net_state.create topo in
  let index = Hashtbl.create 64 in
  Array.iteri (fun i h -> Hashtbl.replace index h i) topo.Topology.hosts;
  fun ~src ~dst ->
    let r =
      Flow_record.v ~id:0 ~src:(Hashtbl.find index src)
        ~dst:(Hashtbl.find index dst) ~size_mbit:1.0 ~duration_s:1.0
        ~arrival_s:0.0
    in
    let c = Net_state.candidates net r in
    List.init (Net_state.candidate_count c) (Net_state.candidate_path net c)

let ft_paths t = candidates_of (Fat_tree.to_topology t)

(* A record between two host indices. *)
let flow_between src dst =
  Flow_record.v ~id:0 ~src ~dst ~size_mbit:1.0 ~duration_s:1.0 ~arrival_s:0.0

(* A Fat-Tree's graph and its i-th host, through its topology. *)
let ft_graph t = (Fat_tree.to_topology t).Topology.graph
let ft_host t i = (Fat_tree.to_topology t).Topology.hosts.(i)

(* Pod of the edge switch a Fat-Tree host attaches to: edge switches
   are numbered contiguously, pod-major. *)
let pod_of t (topo : Topology.t) h =
  let half = Fat_tree.k t / 2 in
  let i = topo.Topology.attach.(h) - Fat_tree.edge t ~pod:0 0 in
  if i < 0 || i >= Fat_tree.k t * half then
    Alcotest.fail "a host attaches to an edge switch";
  i / half

let pod_of_host t h = pod_of t (Fat_tree.to_topology t) h

let test_fat_tree_counts () =
  let t = Fat_tree.to_topology (ft4 ()) in
  Alcotest.(check int) "hosts k=4" 16 (Topology.host_count t);
  Alcotest.(check int) "switches k=4" 20 (Array.length t.Topology.switches);
  let t8 = Fat_tree.to_topology (ft8 ()) in
  Alcotest.(check int) "hosts k=8" 128 (Topology.host_count t8);
  Alcotest.(check int) "switches k=8" 80 (Array.length t8.Topology.switches);
  (* 5k^2/4 and k^3/4 from the paper. *)
  Alcotest.(check int) "5k^2/4" (5 * 8 * 8 / 4) (Array.length t8.Topology.switches);
  Alcotest.(check int) "k^3/4" (8 * 8 * 8 / 4) (Topology.host_count t8)

let test_fat_tree_edge_count () =
  (* k=4: host links 16, edge-agg 4 per pod x 4 pods, agg-core 2 per agg x 8
     aggs; each link is two directed edges. *)
  let t = ft4 () in
  Alcotest.(check int) "directed edges" ((16 + 16 + 16) * 2)
    (Graph.edge_count (ft_graph t))

let test_fat_tree_invalid_k () =
  Alcotest.check_raises "odd k"
    (Invalid_argument "Fat_tree.create: k must be a positive even integer")
    (fun () -> ignore (Fat_tree.create ~k:3 ()));
  Alcotest.check_raises "zero k"
    (Invalid_argument "Fat_tree.create: k must be a positive even integer")
    (fun () -> ignore (Fat_tree.create ~k:0 ()))

(* Node classes, as the interior sets see them: only edge switches
   (ids after the (k/2)^2 cores and the k*k/2 aggregation switches)
   have interiors. *)
let test_fat_tree_kinds () =
  let t = ft4 () in
  let topo = Fat_tree.to_topology t in
  let has_interiors v =
    match topo.Topology.interior_paths ~src:v ~dst:(Fat_tree.edge t ~pod:3 1) with
    | _ -> true
    | exception Invalid_argument _ -> false
  in
  Alcotest.(check bool) "core" false (has_interiors 0);
  Alcotest.(check bool) "agg pod0" false
    (has_interiors (Fat_tree.aggregation t ~pod:0 0));
  Alcotest.(check bool) "edge pod0" true (has_interiors (Fat_tree.edge t ~pod:0 1));
  Alcotest.(check int) "first edge switch" (4 + 8) (Fat_tree.edge t ~pod:0 0);
  Alcotest.(check bool) "host" false (has_interiors (ft_host t 5))

(* Hosts are numbered edge-major: host i sits under edge switch i/(k/2)
   of pod i/(k/2)^2, and host ids are dense after the switches. *)
let test_fat_tree_host_index_roundtrip () =
  let t = ft4 () in
  let topo = Fat_tree.to_topology t in
  Array.iteri
    (fun i h ->
      Alcotest.(check int) "dense" (20 + i) h;
      Alcotest.(check int) "edge-major"
        (Fat_tree.edge t ~pod:(i / 4) (i / 2 mod 2))
        topo.Topology.attach.(h))
    topo.Topology.hosts

let test_fat_tree_pod_of_host () =
  let t = ft4 () in
  (* k=4: 4 hosts per pod (2 edge switches x 2 hosts). *)
  Alcotest.(check int) "host 0 pod" 0 (pod_of_host t (ft_host t 0));
  Alcotest.(check int) "host 4 pod" 1 (pod_of_host t (ft_host t 4));
  Alcotest.(check int) "host 15 pod" 3 (pod_of_host t (ft_host t 15))

let test_fat_tree_ecmp_same_edge () =
  let t = ft4 () in
  (* hosts 0 and 1 share edge switch 0 of pod 0. *)
  let paths = ft_paths t ~src:(ft_host t 0) ~dst:(ft_host t 1) in
  Alcotest.(check int) "single path" 1 (List.length paths);
  Alcotest.(check int) "2 hops" 2 (Path.hops (List.hd paths))

let test_fat_tree_ecmp_same_pod () =
  let t = ft4 () in
  (* hosts 0 and 2 are in pod 0 under different edge switches. *)
  let paths = ft_paths t ~src:(ft_host t 0) ~dst:(ft_host t 2) in
  Alcotest.(check int) "k/2 paths" 2 (List.length paths);
  List.iter (fun p -> Alcotest.(check int) "4 hops" 4 (Path.hops p)) paths

let test_fat_tree_ecmp_inter_pod () =
  let t = ft4 () in
  let src = ft_host t 0 and dst = ft_host t 15 in
  let paths = ft_paths t ~src ~dst in
  Alcotest.(check int) "(k/2)^2 paths" 4 (List.length paths);
  List.iter
    (fun p ->
      Alcotest.(check int) "6 hops" 6 (Path.hops p);
      Alcotest.(check int) "starts at src" src (Path.src p);
      Alcotest.(check int) "ends at dst" dst (Path.dst p))
    paths;
  let distinct = List.sort_uniq compare (List.map Path.edge_ids paths) in
  Alcotest.(check int) "all distinct" 4 (List.length distinct)

(* A host has no path to itself, and an edge switch has one empty
   interior to itself. *)
let test_fat_tree_ecmp_self () =
  let topo = Fat_tree.to_topology (ft4 ()) in
  let self = { (flow_between 0 1) with Flow_record.dst = 0 } in
  Alcotest.(check int) "no self paths" 0
    (Net_state.candidate_count
       (Net_state.candidates (Net_state.create topo) self));
  let e = topo.Topology.attach.(topo.Topology.hosts.(0)) in
  Alcotest.(check (array (array int))) "one empty interior" [| [||] |]
    (topo.Topology.interior_paths ~src:e ~dst:e)

(* Interior sets run between edge switches only. *)
let test_fat_tree_ecmp_not_host () =
  let t = ft4 () in
  let topo = Fat_tree.to_topology t in
  Alcotest.check_raises "host id rejected"
    (Invalid_argument "Fat_tree: not an edge switch") (fun () ->
      ignore
        (topo.Topology.interior_paths ~src:(ft_host t 0)
           ~dst:(Fat_tree.edge t ~pod:1 0)));
  Alcotest.check_raises "core id rejected"
    (Invalid_argument "Fat_tree: not an edge switch") (fun () ->
      ignore
        (topo.Topology.interior_paths ~src:0
           ~dst:(Fat_tree.edge t ~pod:1 0)))

let test_fat_tree_topology_valid () =
  let topo = Fat_tree.to_topology (ft4 ()) in
  (match Topology.validate topo with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "hosts" 16 (Topology.host_count topo);
  Alcotest.(check int) "switches" 20 (Array.length topo.Topology.switches);
  Alcotest.(check int) "diameter" 6 topo.Topology.diameter

let test_fat_tree_link_capacity () =
  let t = Fat_tree.create ~k:4 () in
  Graph.fold_edges (ft_graph t) ~init:() ~f:(fun () e ->
      Alcotest.(check (float 0.0)) "uniform 1 Gbps" 1000.0 e.Graph.capacity)

let test_fat_tree_edge_switch_of_host () =
  let t = ft4 () in
  let topo = Fat_tree.to_topology t in
  let g = topo.Topology.graph in
  let h0 = topo.Topology.hosts.(0) in
  let sw = topo.Topology.attach.(h0) in
  Alcotest.(check int) "edge switch" (Fat_tree.edge t ~pod:0 0) sw;
  Alcotest.(check int) "up is the access link" (Graph.find_edge g ~src:h0 ~dst:sw)
    topo.Topology.up.(h0);
  Alcotest.(check int) "down is its reverse" (Graph.find_edge g ~src:sw ~dst:h0)
    topo.Topology.down.(h0);
  Alcotest.(check int) "a switch attaches nowhere" (-1) topo.Topology.attach.(sw)

(* ------------------------------------------------------------------ *)
(* Leaf-spine                                                          *)

let test_leaf_spine_counts () =
  let t = Leaf_spine.create ~leaves:4 ~spines:2 ~hosts_per_leaf:3 () in
  Alcotest.(check int) "hosts" 12 (Leaf_spine.host_count t);
  Alcotest.(check int) "leaves" 4 (Leaf_spine.leaves t);
  Alcotest.(check int) "spines" 2 (Leaf_spine.spines t);
  (* links: 4x2 leaf-spine + 12 host links, two directed edges each. *)
  Alcotest.(check int) "edges" ((8 + 12) * 2)
    (Graph.edge_count (Leaf_spine.graph t))

let test_leaf_spine_paths () =
  let t = Leaf_spine.create ~leaves:4 ~spines:3 ~hosts_per_leaf:2 () in
  let paths = candidates_of (Leaf_spine.to_topology t) in
  let intra = paths ~src:(Leaf_spine.host t 0) ~dst:(Leaf_spine.host t 1) in
  Alcotest.(check int) "intra-leaf single" 1 (List.length intra);
  Alcotest.(check int) "intra hops" 2 (Path.hops (List.hd intra));
  let inter = paths ~src:(Leaf_spine.host t 0) ~dst:(Leaf_spine.host t 7) in
  Alcotest.(check int) "one per spine" 3 (List.length inter);
  List.iter (fun p -> Alcotest.(check int) "4 hops" 4 (Path.hops p)) inter

let test_leaf_spine_topology_valid () =
  let topo = Leaf_spine.to_topology (Leaf_spine.create ~leaves:3 ~spines:2 ~hosts_per_leaf:2 ()) in
  match Topology.validate topo with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_leaf_spine_invalid () =
  Alcotest.check_raises "bad counts"
    (Invalid_argument "Leaf_spine.create: counts must be positive") (fun () ->
      ignore (Leaf_spine.create ~leaves:0 ()))

(* ------------------------------------------------------------------ *)
(* Jellyfish                                                           *)

let small_jf () =
  Jellyfish.create ~switches:8 ~ports_per_switch:5 ~inter_switch_ports:3
    ~candidate_paths_per_pair:4 ~seed:7 ()

let test_jellyfish_counts () =
  let t = small_jf () in
  Alcotest.(check int) "switches" 8 (Jellyfish.switch_count t);
  Alcotest.(check int) "hosts" 16 (Jellyfish.host_count t);
  (* 8x3/2 switch links + 16 host links, two directed edges each. *)
  Alcotest.(check int) "edges" ((12 + 16) * 2) (Graph.edge_count (Jellyfish.graph t))

(* Every switch has exactly [inter_switch_ports] (3) switch neighbours. *)
let test_jellyfish_regular () =
  let t = small_jf () in
  let n = Jellyfish.switch_count t in
  let deg = Array.make n 0 in
  Graph.fold_edges (Jellyfish.graph t) ~init:() ~f:(fun () e ->
      if e.Graph.src < n && e.Graph.dst < n then
        deg.(e.Graph.src) <- deg.(e.Graph.src) + 1);
  Alcotest.(check (array int)) "r-regular" (Array.make n 3) deg

let test_jellyfish_deterministic () =
  let a = small_jf () and b = small_jf () in
  let sig_of t =
    Graph.fold_edges (Jellyfish.graph t) ~init:[] ~f:(fun acc e ->
        (e.Graph.src, e.Graph.dst) :: acc)
  in
  Alcotest.(check bool) "same seed same graph" true (sig_of a = sig_of b)

let test_jellyfish_paths () =
  let t = small_jf () in
  let src = Jellyfish.host t 0 and dst = Jellyfish.host t 15 in
  let paths = candidates_of (Jellyfish.to_topology t) ~src ~dst in
  Alcotest.(check bool) "nonempty, bounded" true
    (List.length paths >= 1 && List.length paths <= 4);
  List.iter
    (fun p ->
      Alcotest.(check int) "src" src (Path.src p);
      Alcotest.(check int) "dst" dst (Path.dst p))
    paths;
  (* Memoised per switch pair: a second host pair under the same two
     switches reads the same interiors. *)
  let net = Net_state.create (Jellyfish.to_topology t) in
  let a = Net_state.candidates net (flow_between 0 15)
  and b = Net_state.candidates net (flow_between 1 14) in
  Alcotest.(check bool) "memoised" true
    (a.Net_state.interior == b.Net_state.interior)

let test_jellyfish_topology_valid () =
  let topo = Jellyfish.to_topology (small_jf ()) in
  match Topology.validate topo with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_jellyfish_invalid_params () =
  Alcotest.check_raises "ports" (Invalid_argument "Jellyfish.create: inter_switch_ports")
    (fun () -> ignore (Jellyfish.create ~ports_per_switch:4 ~inter_switch_ports:4 ~seed:1 ()));
  Alcotest.check_raises "odd stubs" (Invalid_argument "Jellyfish.create: odd stub count")
    (fun () ->
      ignore
        (Jellyfish.create ~switches:5 ~ports_per_switch:8 ~inter_switch_ports:3
           ~seed:1 ()))

(* ------------------------------------------------------------------ *)
(* Topology interface                                                  *)

let test_topology_is_host () =
  let topo = Fat_tree.to_topology (ft4 ()) in
  let host0 = topo.Topology.hosts.(0) in
  Alcotest.(check bool) "host" true (Topology.is_host topo host0);
  Alcotest.(check bool) "switch" false (Topology.is_host topo 0)

let test_topology_validate_catches_bad_paths () =
  let base = Fat_tree.to_topology (ft4 ()) in
  let broken =
    Topology.make ~name:"broken" ~graph:base.Topology.graph
      ~hosts:base.Topology.hosts ~switches:base.Topology.switches
      ~interior_paths:(fun ~src:_ ~dst:_ -> [||])
      ~diameter:base.Topology.diameter
  in
  match Topology.validate broken with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "validation must fail on empty candidate sets"

let test_topology_validate_catches_overlap () =
  let base = Fat_tree.to_topology (ft4 ()) in
  (* A node listed as both host and switch must be rejected. *)
  let bad =
    Topology.make ~name:"bad" ~graph:base.Topology.graph
      ~hosts:base.Topology.hosts
      ~switches:(Array.append base.Topology.switches [| base.Topology.hosts.(0) |])
      ~interior_paths:base.Topology.interior_paths
      ~diameter:base.Topology.diameter
  in
  match Topology.validate bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "validation must fail on overlapping partitions"

(* ------------------------------------------------------------------ *)
(* Candidate-path golden: every ordered host pair's [candidate_paths]
   equals, in order, the paths through the node
   sequences the fabrics document. *)

let check_golden name (topo : Topology.t) expected =
  let candidates_of = candidates_of topo in
  let mismatch = ref None in
  Array.iter
    (fun src ->
      Array.iter
        (fun dst ->
          if !mismatch = None && src <> dst then begin
            let want =
              List.map (Test_util.path_of_nodes topo.Topology.graph) (expected src dst)
            in
            let got = candidates_of ~src ~dst in
            if not (List.equal Path.equal got want) then
              mismatch := Some (src, dst, got, want)
          end)
        topo.Topology.hosts)
    topo.Topology.hosts;
  match !mismatch with
  | None -> ()
  | Some (src, dst, got, want) ->
      let show ps = List.map (Format.asprintf "%a" Path.pp) ps in
      Alcotest.(check (list string))
        (Printf.sprintf "%s %d -> %d" name src dst)
        (show want) (show got)

let fat_tree_node_sequences ft =
  let half = Fat_tree.k ft / 2 in
  let topo = Fat_tree.to_topology ft in
  fun src dst ->
    let se = topo.Topology.attach.(src) and de = topo.Topology.attach.(dst) in
    let sp = pod_of ft topo src and dp = pod_of ft topo dst in
    if se = de then [ [ src; se; dst ] ]
    else if sp = dp then
      List.init half (fun j ->
          [ src; se; Fat_tree.aggregation ft ~pod:sp j; de; dst ])
    else
      List.concat_map
        (fun j ->
          List.init half (fun c ->
              [ src; se; Fat_tree.aggregation ft ~pod:sp j;
                (j * half) + c (* core ids are [0, half^2) *);
                Fat_tree.aggregation ft ~pod:dp j; de; dst ]))
        (List.init half Fun.id)

let test_candidate_paths_golden () =
  List.iter
    (fun k ->
      let ft = Fat_tree.create ~k () in
      check_golden
        (Printf.sprintf "fat-tree k=%d" k)
        (Fat_tree.to_topology ft)
        (fat_tree_node_sequences ft))
    [ 4; 8 ];
  (* Leaf-spine numbering: spines [0, s), leaves [s, s + l), then hosts
     leaf-major. *)
  let leaves = 4 and spines = 3 and hosts_per_leaf = 3 in
  let ls = Leaf_spine.create ~leaves ~spines ~hosts_per_leaf () in
  let leaf_of v = spines + ((v - spines - leaves) / hosts_per_leaf) in
  check_golden "leaf-spine" (Leaf_spine.to_topology ls) (fun src dst ->
      let sl = leaf_of src and dl = leaf_of dst in
      if sl = dl then [ [ src; sl; dst ] ]
      else List.init spines (fun s -> [ src; sl; s; dl; dst ]));
  (* Jellyfish has no closed form: its Yen sets are pinned by the digest
     of every ordered host pair's candidates, rendered in order. *)
  let jf = Jellyfish.to_topology (small_jf ()) in
  let candidates_of = candidates_of jf in
  let buf = Buffer.create 16384 and count = ref 0 in
  Array.iter
    (fun src ->
      Array.iter
        (fun dst ->
          if src <> dst then begin
            List.iter
              (fun p ->
                incr count;
                Buffer.add_string buf (Format.asprintf "%a;" Path.pp p))
              (candidates_of ~src ~dst);
            Buffer.add_char buf '\n'
          end)
        jf.Topology.hosts)
    jf.Topology.hosts;
  Alcotest.(check int) "jellyfish candidate count" 912 !count;
  Alcotest.(check string) "jellyfish candidate digest" "1094d4ced8dae54f"
    (Obs.Fnv.string_hex (Buffer.contents buf))

(* [of_ids] refuses what [make] refuses, with the same message. *)
let test_path_of_ids_refuses () =
  let ft = ft4 () in
  let g = ft_graph ft in
  let h0 = ft_host ft 0 and e0 = Fat_tree.edge ft ~pod:0 0 in
  let a0 = Fat_tree.aggregation ft ~pod:0 0 and c0 = 0 in
  let hop a b = Graph.find_edge g ~src:a ~dst:b in
  List.iter
    (fun (what, ids, msg) ->
      let exn = Invalid_argument msg in
      Alcotest.check_raises (what ^ " make") exn (fun () ->
          ignore (Path.make g (List.map (Graph.edge g) ids)));
      Alcotest.check_raises (what ^ " of_ids") exn (fun () ->
          ignore (Path.of_ids g (Array.of_list ids))))
    [
      ("empty", [], "Path.make: empty");
      ("gap", [ hop h0 e0; hop a0 c0 ], "Path.make: edges are not contiguous");
      ("loop", [ hop h0 e0; hop e0 a0; hop a0 e0 ], "Path.make: node loop");
      ("back to source", [ hop h0 e0; hop e0 h0 ], "Path.make: node loop");
    ]

(* [Graph.find_edge] is the lookup behind every Fat-Tree path build, so
   it must not allocate: 1,000 lookups on the k=8 fabric, hits and
   misses alike, take 0 minor words. *)
let test_find_edge_allocation () =
  let ft = ft8 () in
  let topo = Fat_tree.to_topology ft in
  let g = topo.Topology.graph in
  let e0 = Fat_tree.edge ft ~pod:0 0 in
  let hosts = Array.init 500 (fun i -> topo.Topology.hosts.(i mod 128)) in
  Graph.freeze g;
  let found = ref 0 in
  let before = Gc.minor_words () in
  for i = 0 to Array.length hosts - 1 do
    let h = hosts.(i) in
    if Graph.find_edge g ~src:h ~dst:e0 >= 0 then incr found;
    if Graph.find_edge g ~src:e0 ~dst:h >= 0 then incr found
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "4 hosts under the edge switch, both ways" 32 !found;
  Alcotest.(check (float 0.0)) "minor words" 0.0 words

let suite =
  [
    ("fat-tree counts", `Quick, test_fat_tree_counts);
    ("fat-tree edge count", `Quick, test_fat_tree_edge_count);
    ("fat-tree invalid k", `Quick, test_fat_tree_invalid_k);
    ("fat-tree kinds", `Quick, test_fat_tree_kinds);
    ("fat-tree host roundtrip", `Quick, test_fat_tree_host_index_roundtrip);
    ("fat-tree pods", `Quick, test_fat_tree_pod_of_host);
    ("fat-tree ecmp same edge", `Quick, test_fat_tree_ecmp_same_edge);
    ("fat-tree ecmp same pod", `Quick, test_fat_tree_ecmp_same_pod);
    ("fat-tree ecmp inter pod", `Quick, test_fat_tree_ecmp_inter_pod);
    ("fat-tree ecmp self", `Quick, test_fat_tree_ecmp_self);
    ("fat-tree ecmp non-host", `Quick, test_fat_tree_ecmp_not_host);
    ("fat-tree topology valid", `Quick, test_fat_tree_topology_valid);
    ("fat-tree link capacity", `Quick, test_fat_tree_link_capacity);
    ("fat-tree edge switch", `Quick, test_fat_tree_edge_switch_of_host);
    ("leaf-spine counts", `Quick, test_leaf_spine_counts);
    ("leaf-spine paths", `Quick, test_leaf_spine_paths);
    ("leaf-spine valid", `Quick, test_leaf_spine_topology_valid);
    ("leaf-spine invalid", `Quick, test_leaf_spine_invalid);
    ("jellyfish counts", `Quick, test_jellyfish_counts);
    ("jellyfish regular", `Quick, test_jellyfish_regular);
    ("jellyfish deterministic", `Quick, test_jellyfish_deterministic);
    ("jellyfish paths", `Quick, test_jellyfish_paths);
    ("jellyfish topology valid", `Slow, test_jellyfish_topology_valid);
    ("jellyfish invalid", `Quick, test_jellyfish_invalid_params);
    ("topology is_host", `Quick, test_topology_is_host);
    ("topology validate bad paths", `Quick, test_topology_validate_catches_bad_paths);
    ("topology validate overlap", `Quick, test_topology_validate_catches_overlap);
    ("candidate paths golden", `Quick, test_candidate_paths_golden);
    ("path of_ids refuses bad input", `Quick, test_path_of_ids_refuses);
    ("fat-tree find_edge allocates nothing", `Quick, test_find_edge_allocation);
  ]
