(* nu_traffic: flow records, IP mapping, trace generators, event specs. *)

(* ------------------------------------------------------------------ *)
(* Flow_record                                                         *)

let mk ?(id = 0) ?(src = 1) ?(dst = 2) ?(size = 10.0) ?(dur = 2.0) ?(arr = 0.0)
    () =
  Flow_record.v ~id ~src ~dst ~size_mbit:size ~duration_s:dur ~arrival_s:arr

let test_record_demand () =
  let r = mk ~size:10.0 ~dur:2.0 () in
  Alcotest.(check (float 1e-9)) "demand" 5.0 (Flow_record.demand_mbps r)

let test_record_validation () =
  Alcotest.check_raises "src=dst" (Invalid_argument "Flow_record.v: src = dst")
    (fun () -> ignore (mk ~src:3 ~dst:3 ()));
  Alcotest.check_raises "size" (Invalid_argument "Flow_record.v: size must be positive")
    (fun () -> ignore (mk ~size:0.0 ()));
  Alcotest.check_raises "duration"
    (Invalid_argument "Flow_record.v: duration must be positive") (fun () ->
      ignore (mk ~dur:(-1.0) ()));
  Alcotest.check_raises "arrival" (Invalid_argument "Flow_record.v: negative arrival")
    (fun () -> ignore (mk ~arr:(-0.1) ()));
  Alcotest.check_raises "endpoint"
    (Invalid_argument "Flow_record.v: negative endpoint") (fun () ->
      ignore (mk ~src:(-1) ()))

(* NaN slips past every [<= 0.0] check, and an infinite duration makes
   a flow of zero demand: each must be refused before it is placed. *)
let test_record_non_finite () =
  let refused what f =
    Alcotest.check_raises what
      (Invalid_argument "Flow_record.v: non-finite size, duration or arrival")
      (fun () -> ignore (f ()))
  in
  refused "nan size" (mk ~size:Float.nan);
  refused "infinite size" (mk ~size:Float.infinity);
  refused "nan duration" (mk ~dur:Float.nan);
  refused "infinite duration" (mk ~dur:Float.infinity);
  refused "nan arrival" (mk ~arr:Float.nan);
  refused "infinite arrival" (mk ~arr:Float.infinity)

(* ------------------------------------------------------------------ *)
(* Ip_map                                                              *)

(* The host a source address maps to. *)
let host_of_ip ~host_count ip =
  fst (Ip_map.host_pair ~host_count ~src_ip:ip ~dst_ip:0l)

let test_ip_host_range () =
  for i = 0 to 500 do
    let h = host_of_ip ~host_count:128 (Int32.of_int (i * 7919)) in
    Alcotest.(check bool) "in range" true (h >= 0 && h < 128)
  done

let test_ip_host_deterministic () =
  let ip = Int32.of_int 12345 in
  Alcotest.(check int) "stable"
    (host_of_ip ~host_count:64 ip)
    (host_of_ip ~host_count:64 ip)

let test_ip_pair_distinct () =
  for i = 0 to 500 do
    let ip = Int32.of_int (i * 131) in
    let s, d = Ip_map.host_pair ~host_count:16 ~src_ip:ip ~dst_ip:ip in
    Alcotest.(check bool) "never equal" true (s <> d)
  done

let test_ip_spread () =
  (* The hash must hit a large fraction of hosts over many addresses. *)
  let seen = Hashtbl.create 64 in
  for i = 0 to 2000 do
    Hashtbl.replace seen (host_of_ip ~host_count:128 (Int32.of_int (i * 65537))) ()
  done;
  Alcotest.(check bool) "covers most hosts" true (Hashtbl.length seen > 100)

(* ------------------------------------------------------------------ *)
(* Trace generators                                                    *)

let test_yahoo_shape () =
  let rng = Prng.create 5 in
  let flows = Yahoo_trace.generate rng ~host_count:64 ~n:500 in
  Alcotest.(check int) "count" 500 (Array.length flows);
  Array.iteri
    (fun i (f : Flow_record.t) ->
      Alcotest.(check int) "sequential ids" i f.Flow_record.id;
      Alcotest.(check bool) "endpoints in range" true
        (f.src >= 0 && f.src < 64 && f.dst >= 0 && f.dst < 64 && f.src <> f.dst);
      let d = Flow_record.demand_mbps f in
      Alcotest.(check bool) "demand in bounds" true (d >= 1.0 && d <= 400.0 +. 1e-6);
      Alcotest.(check bool) "duration positive" true (f.duration_s > 0.0))
    flows;
  let sorted = Array.for_all Fun.id (Array.mapi
    (fun i (f : Flow_record.t) ->
      i = 0 || flows.(i - 1).Flow_record.arrival_s <= f.Flow_record.arrival_s)
    flows) in
  Alcotest.(check bool) "arrivals nondecreasing" true sorted

let test_yahoo_first_id () =
  let rng = Prng.create 5 in
  let flows = Yahoo_trace.generate ~first_id:1000 rng ~host_count:64 ~n:3 in
  Alcotest.(check (list int)) "offset ids" [ 1000; 1001; 1002 ]
    (Array.to_list (Array.map (fun (f : Flow_record.t) -> f.Flow_record.id) flows))

let test_yahoo_deterministic () =
  let a = Yahoo_trace.generate (Prng.create 9) ~host_count:32 ~n:50 in
  let b = Yahoo_trace.generate (Prng.create 9) ~host_count:32 ~n:50 in
  Alcotest.(check bool) "same seed same trace" true (a = b)

let test_yahoo_invalid () =
  Alcotest.check_raises "hosts" (Invalid_argument "Yahoo_trace.generate: host_count")
    (fun () -> ignore (Yahoo_trace.generate (Prng.create 1) ~host_count:1 ~n:1))

let test_benson_shape () =
  let rng = Prng.create 6 in
  let flows = Benson_trace.generate rng ~host_count:64 ~n:500 in
  Alcotest.(check int) "count" 500 (Array.length flows);
  let mice =
    Array.to_list flows
    |> List.filter (fun f -> Flow_record.demand_mbps f <= 10.0 +. 1e-6)
  in
  (* mice fraction 0.8 with generous slack *)
  Alcotest.(check bool) "mice dominate" true (List.length mice > 300);
  Array.iter
    (fun (f : Flow_record.t) ->
      let d = Flow_record.demand_mbps f in
      Alcotest.(check bool) "within elephant cap" true (d <= 200.0 +. 1e-6))
    flows

let test_benson_mixture_params () =
  let params =
    { Benson_trace.default_params with Benson_trace.mice_fraction = 0.0 }
  in
  let rng = Prng.create 6 in
  let flows =
    Array.init 100 (fun id ->
        Benson_trace.draw_flow ~params rng ~id ~src:0 ~dst:1 ~arrival_s:0.0)
  in
  Array.iter
    (fun f ->
      Alcotest.(check bool) "all elephants" true
        (Flow_record.demand_mbps f >= 10.0 -. 1e-6))
    flows

let test_benson_draw_flow_endpoints () =
  let rng = Prng.create 7 in
  let f = Benson_trace.draw_flow rng ~id:42 ~src:3 ~dst:9 ~arrival_s:1.5 in
  Alcotest.(check int) "id" 42 f.Flow_record.id;
  Alcotest.(check int) "src" 3 f.Flow_record.src;
  Alcotest.(check int) "dst" 9 f.Flow_record.dst;
  Alcotest.(check (float 0.0)) "arrival" 1.5 f.Flow_record.arrival_s

(* ------------------------------------------------------------------ *)
(* Event_gen                                                           *)

let test_event_gen_counts () =
  let rng = Prng.create 8 in
  let specs = Event_gen.generate rng ~host_count:64 ~n_events:20 in
  Alcotest.(check int) "events" 20 (List.length specs);
  List.iter
    (fun (s : Event_gen.spec) ->
      let n = List.length s.Event_gen.flows in
      Alcotest.(check bool) "heterogeneous 10-100" true (n >= 10 && n <= 100))
    specs

let test_event_gen_synchronous () =
  let rng = Prng.create 8 in
  let specs =
    Event_gen.generate ~shape:Event_gen.Synchronous rng ~host_count:64
      ~n_events:20
  in
  List.iter
    (fun (s : Event_gen.spec) ->
      let n = List.length s.Event_gen.flows in
      Alcotest.(check bool) "synchronous 50-60" true (n >= 50 && n <= 60))
    specs

let test_event_gen_fixed_and_range () =
  let rng = Prng.create 8 in
  let sizes shape =
    Event_gen.generate ~shape rng ~host_count:64 ~n_events:50
    |> List.map (fun (s : Event_gen.spec) -> List.length s.Event_gen.flows)
  in
  List.iter (Alcotest.(check int) "fixed" 7) (sizes (Event_gen.Fixed 7));
  List.iter
    (fun v -> Alcotest.(check bool) "range" true (v >= 3 && v <= 5))
    (sizes (Event_gen.Range (3, 5)));
  Alcotest.check_raises "bad range"
    (Invalid_argument "Event_gen.flows_per_event: Range") (fun () ->
      ignore (sizes (Event_gen.Range (5, 3))))

let test_event_gen_batch_arrivals () =
  let rng = Prng.create 8 in
  let specs = Event_gen.generate rng ~host_count:64 ~n_events:5 in
  List.iter
    (fun (s : Event_gen.spec) ->
      Alcotest.(check (float 0.0)) "batch at t=0" 0.0 s.Event_gen.arrival_s)
    specs

let test_event_gen_poisson_arrivals () =
  let rng = Prng.create 8 in
  let specs =
    Event_gen.generate ~arrivals:(Event_gen.Poisson 1.0) rng ~host_count:64
      ~n_events:10
  in
  let arrivals = List.map (fun (s : Event_gen.spec) -> s.Event_gen.arrival_s) specs in
  Alcotest.(check bool) "nondecreasing" true
    (List.sort compare arrivals = arrivals);
  Alcotest.(check bool) "actually advances" true
    (List.nth arrivals 9 > 0.0)

let test_event_gen_unique_flow_ids () =
  let rng = Prng.create 8 in
  let specs = Event_gen.generate ~first_flow_id:500 rng ~host_count:64 ~n_events:10 in
  let ids =
    List.concat_map
      (fun (s : Event_gen.spec) ->
        List.map (fun (f : Flow_record.t) -> f.Flow_record.id) s.Event_gen.flows)
      specs
  in
  Alcotest.(check int) "unique" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  Alcotest.(check int) "starts at first_flow_id" 500
    (List.fold_left min max_int ids)

let test_event_gen_flow_arrival_matches_event () =
  let rng = Prng.create 8 in
  let specs =
    Event_gen.generate ~arrivals:(Event_gen.Poisson 2.0) rng ~host_count:64
      ~n_events:5
  in
  List.iter
    (fun (s : Event_gen.spec) ->
      List.iter
        (fun (f : Flow_record.t) ->
          Alcotest.(check (float 0.0)) "flow arrival = event arrival"
            s.Event_gen.arrival_s f.Flow_record.arrival_s)
        s.Event_gen.flows)
    specs

let prop_event_flows_valid =
  QCheck.Test.make ~name:"generated event flows are valid records" ~count:50
    QCheck.(pair small_int (int_range 1 20))
    (fun (seed, n_events) ->
      let rng = Prng.create seed in
      let specs = Event_gen.generate rng ~host_count:32 ~n_events in
      List.for_all
        (fun (s : Event_gen.spec) ->
          List.for_all
            (fun (f : Flow_record.t) ->
              f.Flow_record.src <> f.Flow_record.dst
              && f.Flow_record.src < 32 && f.Flow_record.dst < 32
              && f.Flow_record.size_mbit > 0.0
              && f.Flow_record.duration_s > 0.0)
            s.Event_gen.flows)
        specs)

let suite =
  [
    ("record demand", `Quick, test_record_demand);
    ("record validation", `Quick, test_record_validation);
    ("record non-finite", `Quick, test_record_non_finite);
    ("ip host range", `Quick, test_ip_host_range);
    ("ip deterministic", `Quick, test_ip_host_deterministic);
    ("ip pair distinct", `Quick, test_ip_pair_distinct);
    ("ip spread", `Quick, test_ip_spread);
    ("yahoo shape", `Quick, test_yahoo_shape);
    ("yahoo first id", `Quick, test_yahoo_first_id);
    ("yahoo deterministic", `Quick, test_yahoo_deterministic);
    ("yahoo invalid", `Quick, test_yahoo_invalid);
    ("benson shape", `Quick, test_benson_shape);
    ("benson mixture", `Quick, test_benson_mixture_params);
    ("benson endpoints", `Quick, test_benson_draw_flow_endpoints);
    ("event counts", `Quick, test_event_gen_counts);
    ("event synchronous", `Quick, test_event_gen_synchronous);
    ("event fixed/range", `Quick, test_event_gen_fixed_and_range);
    ("event batch", `Quick, test_event_gen_batch_arrivals);
    ("event poisson", `Quick, test_event_gen_poisson_arrivals);
    ("event unique ids", `Quick, test_event_gen_unique_flow_ids);
    ("event flow arrivals", `Quick, test_event_gen_flow_arrival_matches_event);
    QCheck_alcotest.to_alcotest prop_event_flows_valid;
  ]
