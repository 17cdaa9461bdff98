(* nu_net: network state machine, routing policies, background fill. *)

(* A record between two fat-tree host *indices*. *)
let flow ?(demand = 100.0) = Test_util.flow ~demand

let place_exn net record =
  match Routing.select net record with
  | None -> Alcotest.fail "no feasible path"
  | Some path -> (
      match Net_state.place net record path with
      | Ok () -> path
      | Error _ -> Alcotest.fail "placement failed")

(* ------------------------------------------------------------------ *)
(* Net_state                                                           *)

let test_place_accounting () =
  let net = Net_state.create (Test_util.topo4 ()) in
  let r = flow ~demand:100.0 0 15 in
  let path = place_exn net r in
  List.iter
    (fun (e : Graph.edge) ->
      Alcotest.(check (float 1e-9)) "residual decremented" 900.0
        (Net_state.residual net e.Graph.id);
      Alcotest.(check (float 1e-9)) "used" 100.0 (Net_state.used net e.Graph.id))
    (Path.edges path);
  Alcotest.(check int) "flow count" 1 (Net_state.flow_count net);
  Alcotest.(check bool) "is placed" true (Net_state.is_placed net 0)

let test_remove_restores () =
  let net = Net_state.create (Test_util.topo4 ()) in
  let r = flow ~demand:50.0 0 15 in
  let path = place_exn net r in
  (match Net_state.remove net 0 with
  | Ok placed -> Alcotest.(check bool) "returns placement" true (Path.equal placed.Net_state.path path)
  | Error `Not_found -> Alcotest.fail "was placed");
  List.iter
    (fun (e : Graph.edge) ->
      Alcotest.(check (float 1e-9)) "restored" 1000.0 (Net_state.residual net e.Graph.id))
    (Path.edges path);
  Alcotest.(check bool) "remove twice" true (Net_state.remove net 0 = Error `Not_found)

let test_duplicate_rejected () =
  let net = Net_state.create (Test_util.topo4 ()) in
  let r = flow 0 15 in
  let path = place_exn net r in
  Alcotest.(check bool) "duplicate" true
    (Net_state.place net r path = Error Net_state.Duplicate_flow)

let test_congested_error () =
  let net = Net_state.create (Test_util.topo4 ()) in
  let r = flow ~demand:800.0 0 1 in
  let path = place_exn net r in
  let r2 = flow ~id:1 ~demand:800.0 0 1 in
  match Net_state.place net r2 path with
  | Error (Net_state.Congested blocked) ->
      Alcotest.(check bool) "reports blocked edges" true (blocked <> []);
      List.iter
        (fun (e : Graph.edge) ->
          Alcotest.(check bool) "on path" true (Path.mentions_edge path e.Graph.id))
        blocked
  | _ -> Alcotest.fail "expected congestion"

let test_place_wrong_endpoints () =
  let net = Net_state.create (Test_util.topo4 ()) in
  let r01 = flow 0 1 in
  let path_0_2 =
    match Test_util.candidate_paths net (flow ~id:9 0 2) with
    | p :: _ -> p
    | [] -> Alcotest.fail "paths exist"
  in
  Alcotest.check_raises "endpoint mismatch"
    (Invalid_argument "Net_state.place: path does not connect the flow endpoints")
    (fun () -> ignore (Net_state.place net r01 path_0_2))

let test_reroute_releases_own_usage () =
  (* A flow of 800 Mbps can move to a partially overlapping path even
     though shared access links cannot hold 2x800. *)
  let net = Net_state.create (Test_util.topo4 ()) in
  let r = flow ~demand:800.0 0 15 in
  let _ = place_exn net r in
  let alternatives = Test_util.candidate_paths net r in
  let current = (Option.get (Net_state.flow net 0)).Net_state.path in
  let other = List.find (fun p -> not (Path.equal p current)) alternatives in
  (match Net_state.reroute net 0 other with
  | Ok old -> Alcotest.(check bool) "returns old" true (Path.equal old current)
  | Error _ -> Alcotest.fail "overlapping reroute must succeed");
  match Net_state.invariants_ok net with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_reroute_infeasible_keeps_state () =
  let net = Net_state.create (Test_util.topo4 ()) in
  let blocker = flow ~id:7 ~demand:900.0 2 3 in
  let _ = place_exn net blocker in
  let r = flow ~id:0 ~demand:200.0 0 1 in
  let _ = place_exn net r in
  (* Try to reroute the 0->1 flow onto a same-edge path: there is only
     one path for same-edge pairs, so target the blocked host pair
     instead via a manual path through the blocker's access link. *)
  let blocked_path =
    match Test_util.candidate_paths net (flow ~id:9 ~demand:1.0 2 3) with
    | p :: _ -> p
    | [] -> Alcotest.fail "exists"
  in
  ignore blocked_path;
  (* Rerouting an unknown flow raises. *)
  Alcotest.check_raises "unknown flow"
    (Invalid_argument "Net_state.reroute: flow not placed") (fun () ->
      ignore (Net_state.reroute net 99 blocked_path))

let test_flows_on_edge_sorted () =
  let net = Net_state.create (Test_util.topo4 ()) in
  let r1 = flow ~id:5 ~demand:10.0 0 1 in
  let r2 = flow ~id:2 ~demand:10.0 0 1 in
  let p1 = place_exn net r1 in
  let _ = place_exn net r2 in
  let first_edge = List.hd (Path.edges p1) in
  let on = Net_state.flows_on_edge net first_edge.Graph.id in
  Alcotest.(check (list int)) "sorted ids" [ 2; 5 ]
    (List.map (fun (p : Net_state.placed) -> p.Net_state.record.Flow_record.id) on)

let test_flows_through_node () =
  let net = Net_state.create (Test_util.topo4 ()) in
  let r = flow ~id:1 ~demand:10.0 0 15 in
  let path = place_exn net r in
  let mid = List.nth (Path.nodes path) 2 in
  let through = Net_state.flows_through_node net mid in
  Alcotest.(check int) "found" 1 (List.length through)

let test_utilization_math () =
  let topo = Test_util.topo4 () in
  let net = Net_state.create topo in
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Net_state.mean_utilization net);
  let r = flow ~demand:500.0 0 15 in
  let path = place_exn net r in
  let e0 = (List.hd (Path.edges path)).Graph.id in
  Alcotest.(check (float 1e-9)) "edge util" 0.5
    (Test_util.edge_utilization net e0);
  Alcotest.(check bool) "mean positive" true (Net_state.mean_utilization net > 0.0);
  Alcotest.(check bool) "max util" true
    (String.ends_with ~suffix:"max util 50.0%]"
       (Format.asprintf "%a" Net_state.pp net))

(* The fabric mean is the mean over the fabric subset of the edges. *)
let test_mean_utilization_subset () =
  let net = Net_state.create (Test_util.topo4 ()) in
  let r = flow ~demand:500.0 0 15 in
  let _ = place_exn net r in
  let fabric = Net_state.fabric_edges net in
  let subset_mean =
    List.fold_left
      (fun acc id -> acc +. Test_util.edge_utilization net id)
      0.0 fabric
    /. float_of_int (List.length fabric)
  in
  Alcotest.(check bool) "a busy fabric" true (subset_mean > 0.0);
  Alcotest.(check (float 1e-9)) "fabric subset" subset_mean
    (Net_state.mean_fabric_utilization net)

let test_fabric_edges () =
  let topo = Test_util.topo4 () in
  let net = Net_state.create topo in
  let fabric = Net_state.fabric_edges net in
  (* k=4: 32 directed edge-agg + 32 directed agg-core. *)
  Alcotest.(check int) "fabric edge count" 64 (List.length fabric);
  List.iter
    (fun id ->
      let e = Graph.edge (Net_state.graph net) id in
      Alcotest.(check bool) "no host endpoint" false
        (Topology.is_host topo e.Graph.src || Topology.is_host topo e.Graph.dst))
    fabric

let test_copy_independent () =
  let net = Net_state.create (Test_util.topo4 ()) in
  let r = flow ~demand:100.0 0 15 in
  let _ = place_exn net r in
  let snapshot = Net_state.copy net in
  let r2 = flow ~id:1 ~demand:100.0 1 14 in
  let _ = place_exn net r2 in
  Alcotest.(check int) "copy unchanged" 1 (Net_state.flow_count snapshot);
  Alcotest.(check int) "original changed" 2 (Net_state.flow_count net);
  (match Net_state.remove snapshot 0 with Ok _ -> () | Error _ -> Alcotest.fail "copy mutable");
  Alcotest.(check bool) "original keeps flow" true (Net_state.is_placed net 0)

let test_capacity_gap () =
  let net = Net_state.create (Test_util.topo4 ()) in
  let r = flow ~demand:900.0 0 1 in
  let path = place_exn net r in
  let e = List.hd (Path.edges path) in
  Alcotest.(check (float 1e-9)) "gap" 100.0
    (Net_state.capacity_gap net e ~demand:200.0);
  Alcotest.(check bool) "fits" true (Net_state.capacity_gap net e ~demand:50.0 <= 0.0)

(* A record's host indices map to the topology's host nodes: every
   candidate runs between them. *)
let test_endpoints_mapping () =
  let topo = Test_util.topo4 () in
  let net = Net_state.create topo in
  List.iter
    (fun p ->
      Alcotest.(check int) "src node" topo.Topology.hosts.(3) (Path.src p);
      Alcotest.(check int) "dst node" topo.Topology.hosts.(12) (Path.dst p))
    (Test_util.candidate_paths net (flow 3 12));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Net_state.endpoints: host index out of range") (fun () ->
      ignore (Net_state.candidates net (flow 0 99)))

let prop_random_ops_keep_invariants =
  QCheck.Test.make ~name:"random place/remove keeps invariants" ~count:30
    QCheck.(small_int)
    (fun seed ->
      let net = Net_state.create (Test_util.topo4 ()) in
      let rng = Prng.create seed in
      let placed = ref [] in
      for i = 0 to 150 do
        if Prng.unit_float rng < 0.7 || !placed = [] then begin
          let src = Prng.int rng 16 in
          let dst = (src + 1 + Prng.int rng 15) mod 16 in
          let r = flow ~id:i ~demand:(Prng.float_in rng 1.0 300.0) src dst in
          match Routing.select_random rng net r with
          | None -> ()
          | Some path -> (
              match Net_state.place net r path with
              | Ok () -> placed := i :: !placed
              | Error _ -> ())
        end
        else begin
          match !placed with
          | id :: rest ->
              (match Net_state.remove net id with
              | Ok _ -> placed := rest
              | Error `Not_found -> ())
          | [] -> ()
        end
      done;
      Net_state.invariants_ok net = Ok ())

(* ------------------------------------------------------------------ *)
(* Transactions                                                        *)

let test_txn_rollback_restores () =
  let net = Net_state.create (Test_util.topo4 ()) in
  let r = flow ~id:0 ~demand:100.0 0 15 in
  let path = place_exn net r in
  Net_state.begin_txn net;
  Alcotest.(check bool) "in txn" true (Net_state.in_txn net);
  (match Net_state.remove net 0 with Ok _ -> () | Error _ -> Alcotest.fail "placed");
  let r2 = flow ~id:1 ~demand:700.0 0 15 in
  let _ = place_exn net r2 in
  Net_state.rollback net;
  Alcotest.(check bool) "txn closed" false (Net_state.in_txn net);
  Alcotest.(check int) "flow count restored" 1 (Net_state.flow_count net);
  (match Net_state.flow net 0 with
  | Some p -> Alcotest.(check bool) "path restored" true (Path.equal p.Net_state.path path)
  | None -> Alcotest.fail "flow 0 restored");
  (match Net_state.invariants_ok net with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.check_raises "no open txn"
    (Invalid_argument "Net_state.rollback: no open transaction") (fun () ->
      Net_state.rollback net)

let test_txn_commit_bumps_versions () =
  let net = Net_state.create (Test_util.topo4 ()) in
  let r = flow ~id:0 ~demand:100.0 0 15 in
  Net_state.begin_txn net;
  let path = place_exn net r in
  let e0 = (List.hd (Path.edges path)).Graph.id in
  let v_before = Net_state.edge_version net e0 in
  Net_state.commit net;
  Alcotest.(check bool) "version bumped at commit" true
    (Net_state.edge_version net e0 > v_before);
  Alcotest.(check bool) "flow survives commit" true (Net_state.is_placed net 0)

let test_txn_nested () =
  let net = Net_state.create (Test_util.topo4 ()) in
  Net_state.begin_txn net;
  let _ = place_exn net (flow ~id:0 ~demand:50.0 0 15) in
  Net_state.begin_txn net;
  Alcotest.(check bool) "nested" true (Net_state.in_txn net);
  let _ = place_exn net (flow ~id:1 ~demand:50.0 1 14) in
  Net_state.rollback net;
  Alcotest.(check bool) "inner rolled back" false (Net_state.is_placed net 1);
  Alcotest.(check bool) "outer survives" true (Net_state.is_placed net 0);
  Net_state.commit net;
  Alcotest.(check bool) "committed" true (Net_state.is_placed net 0);
  match Net_state.invariants_ok net with Ok () -> () | Error e -> Alcotest.fail e

let test_txn_copy_rejected () =
  let net = Net_state.create (Test_util.topo4 ()) in
  Net_state.begin_txn net;
  Alcotest.check_raises "copy in txn"
    (Invalid_argument "Net_state.copy: open transaction") (fun () ->
      ignore (Net_state.copy net));
  Net_state.rollback net

let read_set net f =
  Net_state.start_probe net;
  f ();
  Net_state.stop_probe net

let test_probe_tracking () =
  let net = Net_state.create (Test_util.topo4 ()) in
  let r = flow ~id:0 ~demand:100.0 0 15 in
  let path = place_exn net r in
  let c = Net_state.candidates net r in
  let i = Test_util.candidate_index c path in
  let path_ids = List.sort compare (Array.to_list (Path.hop_ids path)) in
  let feasible = ref false in
  let touched =
    read_set net (fun () ->
        feasible := Net_state.candidate_feasible net c i ~demand:10.0)
  in
  Alcotest.(check bool) "feasible" true !feasible;
  Alcotest.(check (list int)) "every path edge, sorted" path_ids
    (Array.to_list touched);
  (* A failing check stops at the first edge that does not fit: the
     source's access hop, for a demand above every capacity. *)
  let touched =
    read_set net (fun () ->
        feasible := Net_state.candidate_feasible net c i ~demand:2000.0)
  in
  Alcotest.(check bool) "infeasible" false !feasible;
  Alcotest.(check (list int)) "only the up hop" [ c.Net_state.up ]
    (Array.to_list touched);
  (* The set resets between probes. *)
  Alcotest.(check (list int)) "empty probe" []
    (Array.to_list (read_set net ignore))

(* [first_feasible] checks each access hop once per call; its read set
   must still be exactly that of checking each eligible candidate's
   full path in turn with [candidate_feasible], up to the first hit
   ([stop]) or, scanning on from each hit, to the end, and it must
   report the same candidates. *)
let check_scan_reads ?(eligible = fun _ -> true) ?(stop = false) name net c
    ~demand =
  let n = Net_state.candidate_count c in
  let expected = ref [] in
  let each =
    read_set net (fun () ->
        let rec go i =
          if i < n then
            if eligible i && Net_state.candidate_feasible net c i ~demand
            then begin
              expected := i :: !expected;
              if not stop then go (i + 1)
            end
            else go (i + 1)
        in
        go 0)
  in
  let got = ref [] in
  let scan =
    read_set net (fun () ->
        let rec go from =
          match Net_state.first_feasible net c ~demand ~eligible ~from with
          | -1 -> ()
          | i ->
              got := i :: !got;
              if not stop then go (i + 1)
        in
        go 0)
  in
  Alcotest.(check (array int)) (name ^ ": read set") each scan;
  Alcotest.(check (list int)) (name ^ ": candidates") (List.rev !expected)
    (List.rev !got);
  scan

let test_first_fit_read_set () =
  let r = flow ~id:0 ~demand:100.0 0 15 in
  (* Free fabric: first fit over the odd candidates only. *)
  let net = Net_state.create (Test_util.topo4 ()) in
  let c = Net_state.candidates net r in
  let scan =
    check_scan_reads "first odd" net c ~demand:100.0
      ~eligible:(fun i -> i mod 2 = 1)
      ~stop:true
  in
  let first_odd = Path.hop_ids (Net_state.candidate_path net c 1) in
  Alcotest.(check (list int)) "candidate 1 only"
    (List.sort compare (Array.to_list first_odd))
    (Array.to_list scan);
  (* The up hop does not fit: host 0's access link is nearly full, so
     no interior or down edge may be read. *)
  let net = Net_state.create (Test_util.topo4 ()) in
  ignore (place_exn net (flow ~id:1 ~demand:950.0 0 1));
  let c = Net_state.candidates net r in
  let scan = check_scan_reads "up full" net c ~demand:100.0 in
  Alcotest.(check (array int)) "only the up hop" [| c.Net_state.up |] scan;
  (* The down hop does not fit after an interior does: host 15's
     access link is nearly full, and a flow of the same switch pair
     fills candidate 0's interior, so candidates that share its edges
     fail inside their interior and the others at their down hop. *)
  let net = Net_state.create (Test_util.topo4 ()) in
  ignore (place_exn net (flow ~id:1 ~demand:950.0 14 15));
  ignore (place_exn net (flow ~id:2 ~demand:950.0 1 14));
  let c = Net_state.candidates net r in
  let fits e = Net_state.residual net e >= 100.0 in
  Alcotest.(check (list bool))
    "setup: up fits, interior 0 full, another interior fits, down full"
    [ true; false; true; false ]
    [
      fits c.Net_state.up;
      Array.for_all fits c.Net_state.interior.(0);
      Array.exists (Array.for_all fits) c.Net_state.interior;
      fits c.Net_state.down;
    ];
  let scan = check_scan_reads "down full" net c ~demand:100.0 in
  Alcotest.(check bool) "down hop read" true (Array.mem c.Net_state.down scan);
  (* No interior fits (the source switch's uplinks are down, in a view
     taken before): the down hop must not be read. *)
  let net = Net_state.create (Test_util.topo4 ()) in
  let c = Net_state.candidates net r in
  Array.iter
    (fun mid -> Net_state.disable_edge net mid.(0))
    c.Net_state.interior;
  let scan = check_scan_reads "no interior" net c ~demand:100.0 in
  Alcotest.(check bool) "down hop not read" false
    (Array.mem c.Net_state.down scan)

(* The first-fit scan against the candidate walk it stands for: on a
   loaded k=4 Fat-Tree, for random flows, demands and eligibility, the
   first hit of [first_feasible] and the edges it records must be those
   of checking each eligible candidate's full path in turn with
   [candidate_feasible] until one fits — with no edge down, with an
   interior edge down, and with an access hop down, each disabled
   after the candidate view was taken (so the scan, not the view,
   meets the dead edge). *)
let test_first_fit_matches_walk () =
  let rng = Prng.create 2024 in
  let trials = ref 0 and hits = ref 0 and misses = ref 0 in
  for round = 0 to 29 do
    let net = Net_state.create (Test_util.topo4 ()) in
    for i = 0 to 39 do
      let src = Prng.int rng 16 in
      let dst = (src + 1 + Prng.int rng 15) mod 16 in
      let r = flow ~id:(1000 + i) ~demand:(Prng.float_in rng 10.0 400.0) src dst in
      match Routing.select_random rng net r with
      | Some path -> ignore (Net_state.place net r path)
      | None -> ()
    done;
    for k = 0 to 9 do
      let src = Prng.int rng 16 in
      let dst = (src + 1 + Prng.int rng 15) mod 16 in
      let demand = Prng.float_in rng 1.0 700.0 in
      let r = flow ~id:k ~demand src dst in
      let c = Net_state.candidates net r in
      let n = Net_state.candidate_count c in
      let mode = (round + k) mod 3 in
      let undo =
        match mode with
        | 1 when Array.length c.Net_state.interior.(0) > 0 ->
            (* Hosts under one switch have one candidate and no
               interior edge; they run as mode 0. *)
            let mid = c.Net_state.interior.(Prng.int rng n) in
            let e = mid.(Prng.int rng (Array.length mid)) in
            Net_state.disable_edge net e;
            fun () -> Net_state.enable_edge net e
        | 2 ->
            let e = if Prng.int rng 2 = 0 then c.Net_state.up else c.Net_state.down in
            Net_state.disable_edge net e;
            fun () -> Net_state.enable_edge net e
        | _ -> ignore
      in
      let parity = Prng.int rng 3 in
      let eligible i = parity = 2 || i mod 2 = parity in
      let walk = ref (-1) in
      let walk_reads =
        read_set net (fun () ->
            let i = ref 0 in
            while !walk < 0 && !i < n do
              if eligible !i && Net_state.candidate_feasible net c !i ~demand
              then walk := !i;
              incr i
            done)
      in
      let scan = ref (-2) in
      let scan_reads =
        read_set net (fun () ->
            scan := Net_state.first_feasible net c ~demand ~eligible ~from:0)
      in
      let what = Printf.sprintf "round %d flow %d mode %d" round k mode in
      Alcotest.(check int) (what ^ ": index") !walk !scan;
      Alcotest.(check (array int)) (what ^ ": read set") walk_reads scan_reads;
      incr trials;
      if !scan >= 0 then incr hits else incr misses;
      undo ()
    done
  done;
  (* Both outcomes were exercised. *)
  Alcotest.(check bool) "some hits" true (!hits > 30);
  Alcotest.(check bool) "some misses" true (!misses > 30);
  Alcotest.(check int) "trials" 300 !trials

(* The tentpole's correctness property: a rolled-back transaction leaves
   the state indistinguishable from a pre-transaction copy, whatever
   mix of place/remove/reroute/disable/enable ran inside it. *)
let prop_txn_rollback_differential =
  QCheck.Test.make ~name:"txn rollback matches pre-txn copy" ~count:30
    QCheck.(small_int)
    (fun seed ->
      let net = Net_state.create (Test_util.topo4 ()) in
      let rng = Prng.create (seed + 1) in
      (* Pre-populate so removes and reroutes have targets. *)
      let placed = ref [] in
      for i = 0 to 39 do
        let src = Prng.int rng 16 in
        let dst = (src + 1 + Prng.int rng 15) mod 16 in
        let r = flow ~id:i ~demand:(Prng.float_in rng 1.0 250.0) src dst in
        match Routing.select_random rng net r with
        | None -> ()
        | Some path -> (
            match Net_state.place net r path with
            | Ok () -> placed := i :: !placed
            | Error _ -> ())
      done;
      let snap = Net_state.copy net in
      let edge_n = Graph.edge_count (Net_state.graph net) in
      Net_state.begin_txn net;
      for i = 100 to 179 do
        match Prng.int rng 5 with
        | 0 | 1 -> (
            let src = Prng.int rng 16 in
            let dst = (src + 1 + Prng.int rng 15) mod 16 in
            let r = flow ~id:i ~demand:(Prng.float_in rng 1.0 250.0) src dst in
            match Routing.select_random rng net r with
            | None -> ()
            | Some path -> ignore (Net_state.place net r path))
        | 2 -> (
            match !placed with
            | id :: rest ->
                ignore (Net_state.remove net id);
                placed := rest @ [ id ]
            | [] -> ())
        | 3 -> (
            match !placed with
            | id :: _ -> (
                match Net_state.flow net id with
                | None -> ()
                | Some p ->
                    let cands =
                      Test_util.candidate_paths net p.Net_state.record
                    in
                    if cands <> [] then
                      let target =
                        List.nth cands (Prng.int rng (List.length cands))
                      in
                      ignore (Net_state.reroute net id target))
            | [] -> ())
        | _ ->
            let e = Prng.int rng edge_n in
            if Prng.unit_float rng < 0.5 then Net_state.disable_edge net e
            else Net_state.enable_edge net e
      done;
      Net_state.rollback net;
      let residuals_match = ref true in
      for e = 0 to edge_n - 1 do
        if
          abs_float (Net_state.residual net e -. Net_state.residual snap e)
          > 1e-9
        then residuals_match := false;
        if Net_state.edge_disabled net e <> Net_state.edge_disabled snap e then
          residuals_match := false
      done;
      let flows_match = ref (Net_state.flow_count net = Net_state.flow_count snap) in
      Net_state.iter_flows snap (fun p ->
          match Net_state.flow net p.Net_state.record.Flow_record.id with
          | Some q ->
              if not (Path.equal p.Net_state.path q.Net_state.path) then
                flows_match := false
          | None -> flows_match := false);
      !residuals_match && !flows_match
      && Net_state.invariants_ok net = Ok ()
      && abs_float
           (Net_state.mean_fabric_utilization net
           -. Net_state.mean_fabric_utilization snap)
         < 1e-9)

(* On-edge puts append without a membership scan, which is sound only
   if no put ever names a flow already on the edge. Random place,
   reroute and remove, inside nested transactions that commit or roll
   back, must keep the full sweep clean after every step: a duplicate
   put would break its entries = hops count. Inside a transaction the
   sweep runs on a probe snapshot, which carries the speculative sets. *)
let prop_nested_txn_ops_keep_invariants =
  QCheck.Test.make ~name:"nested txn place/reroute/remove keeps invariants"
    ~count:25 QCheck.small_int (fun seed ->
      let net = Net_state.create (Test_util.topo4 ()) in
      let rng = Prng.create (seed + 11) in
      let clean () =
        let view =
          if Net_state.in_txn net then Net_state.snapshot net else net
        in
        match Invariant.check view with
        | [] -> true
        | v :: _ ->
            QCheck.Test.fail_reportf "%s: %s" v.Invariant.name
              v.Invariant.detail
      in
      let depth = ref 0 and ok = ref true in
      for _ = 0 to 199 do
        (match Prng.int rng 8 with
        | 0 | 1 | 2 -> (
            let src = Prng.int rng 16 in
            let dst = (src + 1 + Prng.int rng 15) mod 16 in
            (* A small id space makes duplicate places common. *)
            let id = Prng.int rng 40 in
            let r = flow ~id ~demand:(Prng.float_in rng 1.0 200.0) src dst in
            match Routing.select_random rng net r with
            | None -> ()
            | Some path -> ignore (Net_state.place net r path))
        | 3 -> ignore (Net_state.remove net (Prng.int rng 40))
        | 4 -> (
            match Net_state.flow net (Prng.int rng 40) with
            | None -> ()
            | Some p ->
                let cands = Test_util.candidate_paths net p.Net_state.record in
                let target = List.nth cands (Prng.int rng (List.length cands)) in
                ignore
                  (Net_state.reroute net p.Net_state.record.Flow_record.id target)
            )
        | 5 ->
            Net_state.begin_txn net;
            incr depth
        | 6 when !depth > 0 ->
            Net_state.rollback net;
            decr depth
        | _ when !depth > 0 ->
            Net_state.commit net;
            decr depth
        | _ -> ());
        if !ok then ok := clean ()
      done;
      while !depth > 0 do
        if Prng.int rng 2 = 0 then Net_state.rollback net
        else Net_state.commit net;
        decr depth
      done;
      !ok && clean ())

(* Swap-remove order, and so the order the migration pool receives an
   edge's flows in, after a scripted mix of places, removes, a reroute
   and transactions that roll back and commit. The values were recorded
   before on-edge puts stopped scanning the set; any change to put,
   delete or undo order moves them. *)
let test_on_edge_order_pinned () =
  let net = Net_state.create (Test_util.topo4 ()) in
  let rng = Prng.create 2024 in
  let place_random id =
    let src = Prng.int rng 16 in
    let dst = (src + 1 + Prng.int rng 15) mod 16 in
    let r = flow ~id ~demand:(Prng.float_in rng 1.0 120.0) src dst in
    match Routing.select_random rng net r with
    | None -> ()
    | Some path -> ignore (Net_state.place net r path)
  in
  for id = 0 to 59 do
    place_random id
  done;
  List.iter
    (fun id -> ignore (Net_state.remove net id))
    [ 3; 17; 0; 42; 8; 1; 16; 32; 27; 20 ];
  Net_state.begin_txn net;
  for id = 60 to 69 do
    place_random id
  done;
  List.iter (fun id -> ignore (Net_state.remove net id)) [ 5; 61; 23 ];
  Net_state.rollback net;
  Net_state.begin_txn net;
  for id = 70 to 79 do
    place_random id
  done;
  List.iter (fun id -> ignore (Net_state.remove net id)) [ 11; 72; 30 ];
  (match Net_state.flow net 12 with
  | Some p -> (
      match Test_util.candidate_paths net p.Net_state.record with
      | _ :: second :: _ -> ignore (Net_state.reroute net 12 second)
      | _ -> ())
  | None -> ());
  Net_state.commit net;
  let edges = Graph.edge_count (Net_state.graph net) in
  let order e =
    let n = Net_state.edge_flow_count net e in
    let ids = Array.make n 0 in
    let dem = Array.make n 0.0 and size = Array.make n 0.0 in
    ignore (Net_state.edge_flows_blit net e ~ids ~dem ~size);
    Array.to_list ids
  in
  let busiest =
    List.init edges Fun.id
    |> List.stable_sort (fun a b ->
           compare (Net_state.edge_flow_count net b)
             (Net_state.edge_flow_count net a))
    |> List.filteri (fun i _ -> i < 3)
  in
  let all =
    List.init edges order
    |> List.fold_left
         (fun h ids -> Obs.Fnv.int (List.fold_left Obs.Fnv.int h ids) (-1))
         Obs.Fnv.basis
  in
  Alcotest.(check (list (pair int (list int))))
    "busiest edges' entry order"
    [
      (24, [ 54; 45; 33; 37; 71; 76 ]);
      (93, [ 73; 28; 48; 49; 52; 59 ]);
      (1, [ 2; 35; 26; 5; 71 ]);
    ]
    (List.map (fun e -> (e, order e)) busiest);
  Alcotest.(check string) "every edge's entry order" "1e0fb7ac7034c5f3" (Obs.Fnv.hex all)

(* Capacity degradation and link disable/enable are journal-aware: a
   rolled-back transaction that degraded, restored, disabled and enabled
   random edges — bumping the disabled epoch mid-transaction — must
   leave residuals, the degradation ledger and the administrative state
   exactly as a pre-transaction copy. *)
let prop_txn_degrade_differential =
  QCheck.Test.make ~name:"txn rollback restores degradation state" ~count:30
    QCheck.(small_int)
    (fun seed ->
      let net = Net_state.create (Test_util.topo4 ()) in
      let rng = Prng.create (seed + 11) in
      (* Background load so degradations interact with real usage. *)
      for i = 0 to 29 do
        let src = Prng.int rng 16 in
        let dst = (src + 1 + Prng.int rng 15) mod 16 in
        let r = flow ~id:i ~demand:(Prng.float_in rng 1.0 200.0) src dst in
        match Routing.select_random rng net r with
        | None -> ()
        | Some path -> ignore (Net_state.place net r path)
      done;
      let edge_n = Graph.edge_count (Net_state.graph net) in
      (* Pre-transaction degradation that must survive the rollback. *)
      for _ = 0 to 4 do
        Net_state.degrade_edge net (Prng.int rng edge_n)
          ~lost_mbps:(Prng.float_in rng 1.0 50.0)
      done;
      let snap = Net_state.copy net in
      Net_state.begin_txn net;
      for _ = 0 to 59 do
        let e = Prng.int rng edge_n in
        match Prng.int rng 4 with
        | 0 ->
            Net_state.degrade_edge net e
              ~lost_mbps:(Prng.float_in rng 1.0 100.0)
        | 1 -> Net_state.restore_edge_capacity net e
        | 2 -> Net_state.disable_edge net e
        | _ -> Net_state.enable_edge net e
      done;
      Net_state.rollback net;
      let ok = ref (Net_state.invariants_ok net = Ok ()) in
      for e = 0 to edge_n - 1 do
        if
          abs_float (Net_state.residual net e -. Net_state.residual snap e)
          > 1e-9
        then ok := false;
        if Net_state.edge_disabled net e <> Net_state.edge_disabled snap e then
          ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Routing                                                             *)

let test_routing_first_fit () =
  let net = Net_state.create (Test_util.topo4 ()) in
  let r = flow ~demand:10.0 0 15 in
  let candidates = Test_util.candidate_paths net r in
  (match Routing.select net r with
  | Some p -> Alcotest.(check bool) "first candidate" true (Path.equal p (List.hd candidates))
  | None -> Alcotest.fail "feasible");
  Alcotest.(check int) "inter-pod candidates" 4 (List.length candidates)

let test_routing_widest () =
  let net = Net_state.create (Test_util.topo4 ()) in
  (* Load the fabric links of the probe's first candidate using a sibling
     host pair (1 -> 14 shares edge switches with 0 -> 15), so the probe's
     own access links stay untouched and widest must avoid the loaded
     fabric. *)
  let sibling = flow ~id:50 ~demand:400.0 1 14 in
  let sibling_first = List.hd (Test_util.candidate_paths net sibling) in
  (match Net_state.place net sibling sibling_first with
  | Ok () -> ()
  | Error _ -> assert false);
  let r = flow ~id:51 ~demand:10.0 0 15 in
  let loaded_fabric =
    List.filter
      (fun (e : Graph.edge) ->
        not
          (Topology.is_host (Net_state.topology net) e.Graph.src
          || Topology.is_host (Net_state.topology net) e.Graph.dst))
      (Path.edges sibling_first)
  in
  let c = Net_state.candidates net r in
  match
    Routing.select_from ~policy:Routing.Widest ~eligible:(fun _ -> true) net
      ~demand:10.0 c
  with
  | -1 -> Alcotest.fail "feasible"
  | i ->
      let p = Net_state.candidate_path net c i in
      List.iter
        (fun (e : Graph.edge) ->
          Alcotest.(check bool) "avoids loaded fabric" false
            (Path.mentions_edge p e.Graph.id))
        loaded_fabric

let test_routing_random_feasible () =
  let net = Net_state.create (Test_util.topo4 ()) in
  let rng = Prng.create 3 in
  let r = flow ~demand:10.0 0 15 in
  let c = Net_state.candidates net r in
  for _ = 1 to 20 do
    match Routing.select_random rng net r with
    | Some p ->
        Alcotest.(check bool) "feasible" true
          (Net_state.candidate_feasible net c (Test_util.candidate_index c p)
             ~demand:10.0)
    | None -> Alcotest.fail "feasible"
  done

let test_routing_infeasible_none () =
  let net = Net_state.create (Test_util.topo4 ()) in
  let r = flow ~demand:2000.0 0 15 in
  Alcotest.(check bool) "demand above capacity" true (Routing.select net r = None)

let test_ecmp_index () =
  let r = flow ~id:77 3 9 in
  let i1 = Routing.ecmp_index r ~n:16 and i2 = Routing.ecmp_index r ~n:16 in
  Alcotest.(check int) "deterministic" i1 i2;
  Alcotest.(check bool) "in range" true (i1 >= 0 && i1 < 16);
  Alcotest.check_raises "n >= 1" (Invalid_argument "Routing.ecmp_index: n")
    (fun () -> ignore (Routing.ecmp_index r ~n:0))

let test_desired_path_stable () =
  let net = Net_state.create (Test_util.topo4 ()) in
  let r = flow ~demand:10.0 0 15 in
  let desired () =
    let c = Net_state.candidates net r in
    Net_state.candidate_path net c (Routing.desired r c)
  in
  Alcotest.(check bool) "stable" true (Path.equal (desired ()) (desired ()))

let test_select_from_restricted () =
  let net = Net_state.create (Test_util.topo4 ()) in
  let r = flow ~demand:10.0 0 15 in
  let c = Net_state.candidates net r in
  Alcotest.(check int) "nothing eligible" (-1)
    (Routing.select_from ~policy:Routing.First_fit ~eligible:(fun _ -> false) net
       ~demand:1.0 c);
  Alcotest.(check int) "only the last eligible"
    (Net_state.candidate_count c - 1)
    (Routing.select_from ~policy:Routing.First_fit
       ~eligible:(fun i -> i = Net_state.candidate_count c - 1)
       net ~demand:1.0 c)

(* ------------------------------------------------------------------ *)
(* Background                                                          *)

let test_background_fill_reaches_target () =
  let net = Net_state.create (Test_util.topo4 ()) in
  let rng = Prng.create 10 in
  let report =
    Background.fill net ~target:0.3 ~rng
      ~utilization:Net_state.mean_fabric_utilization
      ~make_flow:(fun ~id ~scale ->
        Background.yahoo_flow_maker rng ~host_count:16 ~id ~scale)
      ~first_id:0
  in
  Alcotest.(check bool) "reached" true (report.Background.achieved_utilization >= 0.3);
  Alcotest.(check bool) "placed some" true (report.Background.placed > 0);
  Alcotest.(check int) "ids recorded" report.Background.placed
    (List.length report.Background.placed_ids);
  match Net_state.invariants_ok net with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_background_accept_veto () =
  let net = Net_state.create (Test_util.topo4 ()) in
  let rng = Prng.create 10 in
  let report =
    Background.fill net ~target:0.5 ~rng ~accept:(fun _ _ _ -> false)
      ~make_flow:(fun ~id ~scale ->
        Background.yahoo_flow_maker rng ~host_count:16 ~id ~scale)
      ~first_id:0
  in
  Alcotest.(check int) "nothing placed" 0 report.Background.placed;
  Alcotest.(check bool) "rejections counted" true (report.Background.rejected > 0)

let test_background_invalid_target () =
  let net = Net_state.create (Test_util.topo4 ()) in
  Alcotest.check_raises "target >= 1" (Invalid_argument "Background.fill: target")
    (fun () ->
      ignore
        (Background.fill net ~target:1.0 ~rng:(Prng.create 1)
           ~make_flow:(fun ~id ~scale ->
             ignore scale;
             flow ~id 0 1)
           ~first_id:0))

let test_background_scaling () =
  let rng = Prng.create 10 in
  let r1 = Background.yahoo_flow_maker rng ~host_count:16 ~id:0 ~scale:1.0 in
  let rng = Prng.create 10 in
  let r2 = Background.yahoo_flow_maker rng ~host_count:16 ~id:0 ~scale:0.5 in
  Alcotest.(check (float 1e-9)) "demand halved"
    (Flow_record.demand_mbps r1 /. 2.0)
    (Flow_record.demand_mbps r2);
  Alcotest.(check (float 1e-9)) "duration preserved" r1.Flow_record.duration_s
    r2.Flow_record.duration_s

let test_background_cap_respected () =
  (* Fill with an access-link cap and verify no host link exceeds it. *)
  let topo = Test_util.topo4 () in
  let net = Net_state.create topo in
  let rng = Prng.create 11 in
  let cap = 0.5 in
  let accept net (r : Flow_record.t) path =
    let d = Flow_record.demand_mbps r in
    List.for_all
      (fun (e : Graph.edge) ->
        (not (Topology.is_host topo e.Graph.src || Topology.is_host topo e.Graph.dst))
        || (Net_state.used net e.Graph.id +. d) /. e.Graph.capacity <= cap)
      (Path.edges path)
  in
  let _ =
    Background.fill net ~target:0.4 ~rng ~accept
      ~utilization:Net_state.mean_fabric_utilization
      ~make_flow:(fun ~id ~scale ->
        Background.yahoo_flow_maker rng ~host_count:16 ~id ~scale)
      ~first_id:0
  in
  Graph.fold_edges (Net_state.graph net) ~init:() ~f:(fun () e ->
      if Topology.is_host topo e.Graph.src || Topology.is_host topo e.Graph.dst
      then
        Alcotest.(check bool) "host link under cap" true
          (Test_util.edge_utilization net e.Graph.id <= cap +. 1e-9))

let test_disable_edge () =
  let net = Net_state.create (Test_util.topo4 ()) in
  let r = flow ~demand:10.0 0 15 in
  let all = Test_util.candidate_paths net r in
  (* A view taken before the disable still addresses the victim. *)
  let before = Net_state.candidates net r in
  let victim = List.hd all in
  let victim_edge = (List.nth (Path.edges victim) 2).Graph.id in
  Net_state.disable_edge net victim_edge;
  Alcotest.(check bool) "flag set" true (Net_state.edge_disabled net victim_edge);
  let remaining = Test_util.candidate_paths net r in
  Alcotest.(check int) "one candidate dropped" (List.length all - 1)
    (List.length remaining);
  Alcotest.(check bool) "victim infeasible" false
    (Net_state.candidate_feasible net before 0 ~demand:10.0);
  (match Net_state.place net r victim with
  | Error (Net_state.Congested blocked) ->
      Alcotest.(check bool) "dead edge reported" true
        (List.exists (fun (e : Graph.edge) -> e.Graph.id = victim_edge) blocked)
  | _ -> Alcotest.fail "placement over a dead link must fail");
  Net_state.enable_edge net victim_edge;
  Alcotest.(check bool) "re-enabled" false (Net_state.edge_disabled net victim_edge);
  Alcotest.(check int) "candidates restored" (List.length all)
    (List.length (Test_util.candidate_paths net r))

let test_disable_edge_copy () =
  let net = Net_state.create (Test_util.topo4 ()) in
  Net_state.disable_edge net 0;
  let snap = Net_state.copy net in
  Net_state.enable_edge net 0;
  Alcotest.(check bool) "copy keeps its own flag" true
    (Net_state.edge_disabled snap 0);
  Alcotest.check_raises "bad id" (Invalid_argument "Net_state.disable_edge: edge id")
    (fun () -> Net_state.disable_edge net 99999)

(* A cold memo fill on the paper's k=8 Fat-Tree searches each of the
   32 x 32 edge-switch pairs once and keeps their 14,752 interiors
   (32 empty, 96 x 4 intra-pod, 896 x 16 inter-pod), where host pairs
   held 235,904 full paths; it allocates at most 200 k minor words in
   all (94 k measured; the host-pair fill took about 6 M). *)
let test_warm_all_paths_allocation () =
  let base = Fat_tree.to_topology (Fat_tree.create ~k:8 ()) in
  let pairs = ref 0 and interiors = ref 0 in
  let topo =
    Topology.make ~name:base.Topology.name ~graph:base.Topology.graph
      ~hosts:base.Topology.hosts ~switches:base.Topology.switches
      ~interior_paths:(fun ~src ~dst ->
        let ps = base.Topology.interior_paths ~src ~dst in
        incr pairs;
        interiors := !interiors + Array.length ps;
        ps)
      ~diameter:base.Topology.diameter
  in
  let net = Net_state.create topo in
  let before = Gc.minor_words () in
  Net_state.warm_all_paths net;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "switch pairs searched" 1024 !pairs;
  Alcotest.(check int) "interiors memoised" 14_752 !interiors;
  if words > 200_000.0 then
    Alcotest.failf "%.0f minor words for the cold fill (gate: 200000)" words;
  (* Warm: every later read, by any host pair, hits the memo. *)
  Net_state.warm_all_paths net;
  ignore (Net_state.candidates net (flow 0 127));
  Alcotest.(check int) "no search after the fill" 1024 !pairs

let suite =
  [
    ("place accounting", `Quick, test_place_accounting);
    ("disable edge", `Quick, test_disable_edge);
    ("disable edge copy", `Quick, test_disable_edge_copy);
    ("remove restores", `Quick, test_remove_restores);
    ("duplicate rejected", `Quick, test_duplicate_rejected);
    ("congested error", `Quick, test_congested_error);
    ("wrong endpoints", `Quick, test_place_wrong_endpoints);
    ("reroute releases own usage", `Quick, test_reroute_releases_own_usage);
    ("reroute unknown flow", `Quick, test_reroute_infeasible_keeps_state);
    ("flows on edge sorted", `Quick, test_flows_on_edge_sorted);
    ("flows through node", `Quick, test_flows_through_node);
    ("utilization math", `Quick, test_utilization_math);
    ("mean utilization subset", `Quick, test_mean_utilization_subset);
    ("fabric edges", `Quick, test_fabric_edges);
    ("copy independent", `Quick, test_copy_independent);
    ("capacity gap", `Quick, test_capacity_gap);
    ("endpoints mapping", `Quick, test_endpoints_mapping);
    QCheck_alcotest.to_alcotest prop_random_ops_keep_invariants;
    ("txn rollback restores", `Quick, test_txn_rollback_restores);
    ("txn commit bumps versions", `Quick, test_txn_commit_bumps_versions);
    ("txn nested", `Quick, test_txn_nested);
    ("txn copy rejected", `Quick, test_txn_copy_rejected);
    ("probe tracking", `Quick, test_probe_tracking);
    ("first-fit scan read set", `Quick, test_first_fit_read_set);
    QCheck_alcotest.to_alcotest prop_txn_rollback_differential;
    QCheck_alcotest.to_alcotest prop_txn_degrade_differential;
    ("routing first fit", `Quick, test_routing_first_fit);
    ("routing widest", `Quick, test_routing_widest);
    ("routing random feasible", `Quick, test_routing_random_feasible);
    ("routing infeasible", `Quick, test_routing_infeasible_none);
    ("ecmp index", `Quick, test_ecmp_index);
    ("desired path stable", `Quick, test_desired_path_stable);
    ("select_from empty", `Quick, test_select_from_restricted);
    ("background fill", `Quick, test_background_fill_reaches_target);
    ("background veto", `Quick, test_background_accept_veto);
    ("background invalid target", `Quick, test_background_invalid_target);
    ("background scaling", `Quick, test_background_scaling);
    ("background cap respected", `Quick, test_background_cap_respected);
    ("warm_all_paths allocation", `Quick, test_warm_all_paths_allocation);
    QCheck_alcotest.to_alcotest prop_nested_txn_ops_keep_invariants;
    ("on-edge entry order pinned", `Quick, test_on_edge_order_pinned);
    ("first-fit scan = candidate walk", `Quick, test_first_fit_matches_walk);
  ]
