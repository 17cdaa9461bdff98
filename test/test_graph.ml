(* nu_graph: graph structure, paths, priority queue, search algorithms. *)

(* A diamond of links: 0 - 1 - 3 and 0 - 2 - 3, plus a long detour
   0 - 4 - 5 - 3, and an isolated node 6. Each link is two directed
   edges; the returned ids are the directions away from node 0. *)
let diamond () =
  let g = Graph.create ~initial_nodes:7 () in
  let link a b capacity = fst (Graph.add_link g ~a ~b ~capacity) in
  let e01 = link 0 1 10.0 in
  let e13 = link 1 3 10.0 in
  let e02 = link 0 2 5.0 in
  let e23 = link 2 3 5.0 in
  let e04 = link 0 4 100.0 in
  let e45 = link 4 5 100.0 in
  let e53 = link 5 3 100.0 in
  (g, (e01, e13, e02, e23, e04, e45, e53))

(* ------------------------------------------------------------------ *)
(* Graph                                                               *)

let test_graph_counts () =
  let g, _ = diamond () in
  Alcotest.(check int) "nodes" 7 (Graph.node_count g);
  Alcotest.(check int) "edges" 14 (Graph.edge_count g)

let test_graph_edge_accessor () =
  let g, (e01, _, _, _, _, _, _) = diamond () in
  let e = Graph.edge g e01 in
  Alcotest.(check int) "src" 0 e.Graph.src;
  Alcotest.(check int) "dst" 1 e.Graph.dst;
  Alcotest.(check (float 0.0)) "capacity" 10.0 e.Graph.capacity;
  Alcotest.check_raises "bad id" (Invalid_argument "Graph.edge: id out of range")
    (fun () -> ignore (Graph.edge g 99))

let test_graph_adjacency_order () =
  let g, _ = diamond () in
  let outs = Graph.out_edges g 0 in
  Alcotest.(check (list int)) "insertion order" [ 1; 2; 4 ]
    (List.map (fun (e : Graph.edge) -> e.Graph.dst) outs);
  let ins = Graph.in_edges g 3 in
  Alcotest.(check (list int)) "in edges" [ 1; 2; 5 ]
    (List.map (fun (e : Graph.edge) -> e.Graph.src) ins);
  Alcotest.(check int) "out degree" 3 (List.length outs)

let test_graph_find_edge () =
  let g, (e01, _, _, _, _, _, _) = diamond () in
  Alcotest.(check int) "found" e01 (Graph.find_edge g ~src:0 ~dst:1);
  Alcotest.(check int) "absent" (-1) (Graph.find_edge g ~src:1 ~dst:2);
  Alcotest.(check int) "bad src" (-1) (Graph.find_edge g ~src:99 ~dst:0)

let test_graph_find_edge_first_inserted () =
  let g = Graph.create ~initial_nodes:2 () in
  let first, _ = Graph.add_link g ~a:0 ~b:1 ~capacity:1.0 in
  let _second = Graph.add_link g ~a:0 ~b:1 ~capacity:2.0 in
  Alcotest.(check int) "first parallel edge" first
    (Graph.find_edge g ~src:0 ~dst:1)

let test_graph_add_link_and_reverse () =
  let g = Graph.create ~initial_nodes:2 () in
  let ab, ba = Graph.add_link g ~a:0 ~b:1 ~capacity:7.0 in
  let e_ab = Graph.edge g ab in
  (match Graph.reverse_edge g e_ab with
  | Some r -> Alcotest.(check int) "reverse id" ba r.Graph.id
  | None -> Alcotest.fail "reverse exists")

let test_graph_invalid_edges () =
  let g = Graph.create ~initial_nodes:2 () in
  Alcotest.check_raises "bad src" (Invalid_argument "Graph.add_edge: src")
    (fun () -> ignore (Graph.add_link g ~a:5 ~b:0 ~capacity:1.0));
  Alcotest.check_raises "bad capacity"
    (Invalid_argument "Graph.add_edge: capacity") (fun () ->
      ignore (Graph.add_link g ~a:0 ~b:1 ~capacity:(-1.0)))

(* The size summary sums every directed edge's capacity. *)
let test_graph_total_capacity () =
  let g, _ = diamond () in
  Alcotest.(check string) "sum" "graph[7 nodes, 14 edges, 660 Mbps total]"
    (Format.asprintf "%a" Graph.pp g)

let test_graph_fold_iter () =
  let g, _ = diamond () in
  let n = Graph.fold_edges g ~init:0 ~f:(fun acc _ -> acc + 1) in
  Alcotest.(check int) "fold counts edges" 14 n;
  let seen = ref [] in
  Graph.fold_edges g ~init:() ~f:(fun () e -> seen := e.Graph.id :: !seen);
  Alcotest.(check (list int)) "iter order" (List.init 14 Fun.id)
    (List.rev !seen)

let test_graph_growth () =
  (* Force multiple internal array reallocations. *)
  let g = Graph.create ~initial_nodes:200 () in
  for i = 0 to 198 do
    ignore (Graph.add_link g ~a:i ~b:(i + 1) ~capacity:1.0)
  done;
  Alcotest.(check int) "edges" 398 (Graph.edge_count g);
  Alcotest.(check int) "node degree" 1 (List.length (Graph.out_edges g 0))

(* ------------------------------------------------------------------ *)
(* Path                                                                *)

let test_path_of_nodes () =
  let g, (e01, e13, _, _, _, _, _) = diamond () in
  let p = Path.of_ids g [| e01; e13 |] in
  Alcotest.(check int) "src" 0 (Path.src p);
  Alcotest.(check int) "dst" 3 (Path.dst p);
  Alcotest.(check int) "hops" 2 (Path.hops p);
  Alcotest.(check (list int)) "nodes" [ 0; 1; 3 ] (Path.nodes p)

let test_path_validation () =
  let g, _ = diamond () in
  Alcotest.check_raises "empty" (Invalid_argument "Path.make: empty")
    (fun () -> ignore (Path.make g []))

let test_path_non_contiguous () =
  let g, (e01, _, _, e23, _, _, _) = diamond () in
  let e01 = Graph.edge g e01 and e23 = Graph.edge g e23 in
  Alcotest.check_raises "gap" (Invalid_argument "Path.make: edges are not contiguous")
    (fun () -> ignore (Path.make g [ e01; e23 ]))

let test_path_loop_rejected () =
  let g = Graph.create ~initial_nodes:3 () in
  let a, b = Graph.add_link g ~a:0 ~b:1 ~capacity:1.0 in
  let c, _ = Graph.add_link g ~a:0 ~b:2 ~capacity:1.0 in
  Alcotest.check_raises "loop" (Invalid_argument "Path.make: node loop")
    (fun () ->
      ignore (Path.make g [ Graph.edge g a; Graph.edge g b; Graph.edge g c ]))

let test_path_mentions () =
  let g, (e01, e13, e02, _, _, _, _) = diamond () in
  let p = Test_util.path_of_nodes g [ 0; 1; 3 ] in
  Alcotest.(check bool) "has e01" true (Path.mentions_edge p e01);
  Alcotest.(check bool) "has e13" true (Path.mentions_edge p e13);
  Alcotest.(check bool) "no e02" false (Path.mentions_edge p e02);
  Alcotest.(check bool) "node 1" true (Path.mentions_node p 1);
  Alcotest.(check bool) "node 2" false (Path.mentions_node p 2)

let test_path_equal_compare () =
  let g, _ = diamond () in
  let p1 = Test_util.path_of_nodes g [ 0; 1; 3 ] in
  let p2 = Test_util.path_of_nodes g [ 0; 1; 3 ] in
  let p3 = Test_util.path_of_nodes g [ 0; 2; 3 ] in
  Alcotest.(check bool) "equal" true (Path.equal p1 p2);
  Alcotest.(check bool) "not equal" false (Path.equal p1 p3)

let test_path_pp () =
  let g, _ = diamond () in
  let p = Test_util.path_of_nodes g [ 0; 1; 3 ] in
  Alcotest.(check string) "render" "0->1->3" (Format.asprintf "%a" Path.pp p)

(* ------------------------------------------------------------------ *)
(* Pqueue                                                              *)

let test_pqueue_ordering () =
  let q = Pqueue.create () in
  Pqueue.push q 3.0 "c";
  Pqueue.push q 1.0 "a";
  Pqueue.push q 2.0 "b";
  Alcotest.(check bool) "min at most 1" true (Pqueue.min_le q 1.0);
  Alcotest.(check bool) "min above 0.5" false (Pqueue.min_le q 0.5);
  Alcotest.(check (option (pair (float 0.0) string))) "pop a" (Some (1.0, "a"))
    (Pqueue.pop q);
  Alcotest.(check bool) "min above 1.5" false (Pqueue.min_le q 1.5);
  Alcotest.(check string) "pop_value b" "b" (Pqueue.pop_value q);
  Alcotest.(check (option (pair (float 0.0) string))) "pop c" (Some (3.0, "c"))
    (Pqueue.pop q);
  Alcotest.(check bool) "empty" true (Pqueue.pop q = None);
  Alcotest.(check bool) "empty: no min" false (Pqueue.min_le q infinity);
  Alcotest.check_raises "pop_value on empty"
    (Invalid_argument "Pqueue.pop_value: empty queue") (fun () ->
      ignore (Pqueue.pop_value q))

let test_pqueue_fifo_ties () =
  let q = Pqueue.create () in
  Pqueue.push q 1.0 "first";
  Pqueue.push q 1.0 "second";
  Pqueue.push q 1.0 "third";
  let order = List.init 3 (fun _ -> snd (Option.get (Pqueue.pop q))) in
  Alcotest.(check (list string)) "fifo on ties" [ "first"; "second"; "third" ]
    order

(* to_list must report exact pop order (priority, then insertion seq on
   ties), and pushing that list back in order must reproduce the same
   pop sequence — checkpointing serialises departure queues this way. *)
let test_pqueue_to_list_pop_order () =
  let q = Pqueue.create () in
  Pqueue.push q 2.0 "b";
  Pqueue.push q 1.0 "a1";
  Pqueue.push q 1.0 "a2";
  Pqueue.push q 3.0 "c";
  let listed = Pqueue.to_list q in
  let rebuilt = Pqueue.create () in
  List.iter (fun (p, v) -> Pqueue.push rebuilt p v) listed;
  let drain q =
    let rec go acc =
      match Pqueue.pop q with None -> List.rev acc | Some x -> go (x :: acc)
    in
    go []
  in
  let popped = drain q in
  Alcotest.(check (list (pair (float 0.0) string)))
    "to_list is pop order"
    [ (1.0, "a1"); (1.0, "a2"); (2.0, "b"); (3.0, "c") ]
    listed;
  Alcotest.(check (list (pair (float 0.0) string)))
    "rebuild reproduces pops" popped (drain rebuilt)

let prop_pqueue_sorted =
  QCheck.Test.make ~name:"pqueue pops in sorted order" ~count:200
    QCheck.(list (float_range (-100.) 100.))
    (fun prios ->
      let q = Pqueue.create () in
      List.iteri (fun i p -> Pqueue.push q p i) prios;
      let rec drain acc =
        match Pqueue.pop q with
        | None -> List.rev acc
        | Some (p, _) -> drain (p :: acc)
      in
      let out = drain [] in
      out = List.sort compare prios)

(* Interleaved pushes (priorities drawn from five values, so ties are
   the rule) and pops against a reference: each pop must return the head
   of a stable sort of the pending entries by priority. At the end,
   [to_list] must be that sort, and re-pushing it must rebuild a queue
   that drains exactly like the original. *)
let prop_pqueue_matches_stable_sort =
  QCheck.Test.make ~name:"pqueue interleaved ops match a stable sort"
    ~count:300
    QCheck.(list (option (int_bound 4)))
    (fun ops ->
      let q = Pqueue.create () in
      let by_prio = List.stable_sort (fun (a, _) (b, _) -> compare a b) in
      let pending = ref [] and next = ref 0 and ok = ref true in
      List.iter
        (function
          | Some k ->
              let prio = float_of_int k /. 2.0 in
              Pqueue.push q prio !next;
              pending := !pending @ [ (prio, !next) ];
              incr next
          | None -> (
              match by_prio !pending with
              | [] -> if Pqueue.pop q <> None then ok := false
              | head :: _ ->
                  if Pqueue.pop q <> Some head then ok := false;
                  pending := List.filter (fun x -> x <> head) !pending))
        ops;
      let listed = Pqueue.to_list q in
      let rebuilt = Pqueue.create () in
      List.iter (fun (p, v) -> Pqueue.push rebuilt p v) listed;
      let rec drain q acc =
        match Pqueue.pop q with None -> List.rev acc | Some x -> drain q (x :: acc)
      in
      let from_rebuilt = drain rebuilt [] in
      !ok
      && listed = by_prio !pending
      && drain q [] = listed
      && from_rebuilt = listed
      && not (Pqueue.min_le q infinity))

(* ------------------------------------------------------------------ *)
(* CSR adjacency vs a reference model: the flat offsets+ids layout
   behind {!Graph.iter_out}/{!Graph.in_edges} must agree, edge for edge
   and in insertion order, with naive per-node adjacency lists recorded
   at [add_link] time — including across the lazy rebuild that a
   post-freeze append triggers. *)

let prop_csr_matches_reference =
  QCheck.Test.make ~name:"CSR adjacency matches reference lists" ~count:60
    QCheck.small_int (fun seed ->
      let rng = Prng.create (7000 + seed) in
      let n = Prng.int_in rng 2 20 in
      let g = Graph.create ~initial_nodes:n () in
      let out_ref = Array.make n [] and in_ref = Array.make n [] in
      let add_random_edge () =
        let src = Prng.int rng n in
        let dst = (src + 1 + Prng.int rng (n - 1)) mod n in
        let capacity = Prng.float_in rng 1.0 100.0 in
        let ab, ba = Graph.add_link g ~a:src ~b:dst ~capacity in
        out_ref.(src) <- ab :: out_ref.(src);
        in_ref.(dst) <- ab :: in_ref.(dst);
        out_ref.(dst) <- ba :: out_ref.(dst);
        in_ref.(src) <- ba :: in_ref.(src)
      in
      let m = Prng.int_in rng 0 60 in
      for _ = 1 to m do
        add_random_edge ()
      done;
      Graph.freeze g;
      (* Post-freeze appends exercise the lazy CSR rebuild. *)
      let extra = Prng.int_in rng 0 10 in
      for _ = 1 to extra do
        add_random_edge ()
      done;
      let csr_out v =
        let acc = ref [] in
        Graph.iter_out g v (fun e -> acc := e :: !acc);
        List.rev !acc
      in
      let ids edges = List.map (fun e -> e.Graph.id) edges in
      let ok = ref true in
      for v = 0 to n - 1 do
        let o = List.rev out_ref.(v) and i = List.rev in_ref.(v) in
        if csr_out v <> o then ok := false;
        (* The record-list view must agree with the CSR rows too. *)
        if ids (Graph.out_edges g v) <> o then ok := false;
        if ids (Graph.in_edges g v) <> i then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Dijkstra                                                            *)

let test_dijkstra_weighted () =
  let g, _ = diamond () in
  (* Make the top route expensive: weight = 100/capacity. *)
  let weight (e : Graph.edge) = 100.0 /. e.Graph.capacity in
  match Dijkstra.shortest_path g ~weight ~src:0 ~dst:3 () with
  | Some (p, w) ->
      Alcotest.(check (list int)) "takes the detour (cheapest)" [ 0; 4; 5; 3 ]
        (Path.nodes p);
      Alcotest.(check (float 1e-9)) "weight" 3.0 w
  | None -> Alcotest.fail "path exists"

let test_dijkstra_hops () =
  let g, _ = diamond () in
  match Dijkstra.shortest_path g ~weight:(fun _ -> 1.0) ~src:0 ~dst:3 () with
  | Some (p, w) ->
      Alcotest.(check int) "two hops" 2 (Path.hops p);
      Alcotest.(check (float 1e-9)) "weight 2" 2.0 w
  | None -> Alcotest.fail "path exists"

let test_dijkstra_negative_weight () =
  let g, _ = diamond () in
  Alcotest.check_raises "negative"
    (Invalid_argument "Dijkstra.shortest_path: negative weight") (fun () ->
      ignore (Dijkstra.shortest_path g ~weight:(fun _ -> -1.0) ~src:0 ~dst:3 ()))

let test_dijkstra_unreachable () =
  let g, _ = diamond () in
  Alcotest.(check bool) "none" true
    (Dijkstra.shortest_path g ~weight:(fun _ -> 1.0) ~src:3 ~dst:6 () = None)

(* ------------------------------------------------------------------ *)
(* Yen                                                                 *)

let test_yen_enumerates () =
  let g, _ = diamond () in
  let paths = Yen.k_shortest g ~k:3 ~src:0 ~dst:3 () in
  Alcotest.(check int) "three loopless paths" 3 (List.length paths);
  let weights = List.map snd paths in
  Alcotest.(check bool) "ascending" true (weights = List.sort compare weights);
  let distinct =
    List.sort_uniq compare (List.map (fun (p, _) -> Path.edge_ids p) paths)
  in
  Alcotest.(check int) "distinct" 3 (List.length distinct)

let test_yen_k_larger_than_paths () =
  let g, _ = diamond () in
  let paths = Yen.k_shortest g ~k:10 ~src:0 ~dst:3 () in
  Alcotest.(check int) "only 3 exist" 3 (List.length paths)

let test_yen_k_zero () =
  let g, _ = diamond () in
  Alcotest.(check (list pass)) "empty" [] (Yen.k_shortest g ~k:0 ~src:0 ~dst:3 ())

let test_yen_weighted_order () =
  let g, _ = diamond () in
  let weight (e : Graph.edge) = 100.0 /. e.Graph.capacity in
  match Yen.k_shortest g ~weight ~k:3 ~src:0 ~dst:3 () with
  | (first, w) :: _ ->
      Alcotest.(check (list int)) "cheapest first" [ 0; 4; 5; 3 ]
        (Path.nodes first);
      Alcotest.(check (float 1e-9)) "weight" 3.0 w
  | [] -> Alcotest.fail "paths exist"

let suite =
  [
    ("graph counts", `Quick, test_graph_counts);
    ("graph edge accessor", `Quick, test_graph_edge_accessor);
    ("graph adjacency order", `Quick, test_graph_adjacency_order);
    ("graph find edge", `Quick, test_graph_find_edge);
    ("graph parallel edges", `Quick, test_graph_find_edge_first_inserted);
    ("graph link + reverse", `Quick, test_graph_add_link_and_reverse);
    ("graph invalid edges", `Quick, test_graph_invalid_edges);
    ("graph total capacity", `Quick, test_graph_total_capacity);
    ("graph fold/iter", `Quick, test_graph_fold_iter);
    ("graph growth", `Quick, test_graph_growth);
    ("path of_nodes", `Quick, test_path_of_nodes);
    ("path validation", `Quick, test_path_validation);
    ("path non-contiguous", `Quick, test_path_non_contiguous);
    ("path loop rejected", `Quick, test_path_loop_rejected);
    ("path mentions", `Quick, test_path_mentions);
    ("path equality", `Quick, test_path_equal_compare);
    ("path pp", `Quick, test_path_pp);
    ("pqueue ordering", `Quick, test_pqueue_ordering);
    ("pqueue fifo ties", `Quick, test_pqueue_fifo_ties);
    ("pqueue to_list pop order", `Quick, test_pqueue_to_list_pop_order);
    QCheck_alcotest.to_alcotest prop_pqueue_sorted;
    QCheck_alcotest.to_alcotest prop_csr_matches_reference;
    ("dijkstra weighted", `Quick, test_dijkstra_weighted);
    ("dijkstra hops", `Quick, test_dijkstra_hops);
    ("dijkstra negative weight", `Quick, test_dijkstra_negative_weight);
    ("dijkstra unreachable", `Quick, test_dijkstra_unreachable);
    ("yen enumerates", `Quick, test_yen_enumerates);
    ("yen k too large", `Quick, test_yen_k_larger_than_paths);
    ("yen k zero", `Quick, test_yen_k_zero);
    ("yen weighted order", `Quick, test_yen_weighted_order);
    QCheck_alcotest.to_alcotest prop_pqueue_matches_stable_sort;
  ]
