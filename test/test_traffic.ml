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

let host_of_ip ~host_count ip = Ip_map.host_of_ip ~host_count (Int32.to_int ip)

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
    let s = host_of_ip ~host_count:16 ip in
    let d = Ip_map.peer_of_ip ~host_count:16 ~src:s (Int32.to_int ip) in
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
(* Single-flow draws                                                   *)

(* Reference models of the one-flow draws as they were written before
   [next] existed: [generate ~n:1] built an [Array.init] over a clock
   ref, and Yahoo hashed its int32 IPs in pairs. The draws under test
   must equal them field for field, floats bit for bit. *)
let ref_mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let ref_host ~host_count ip =
  Int64.to_int (Int64.shift_right_logical (ref_mix64 (Int64.of_int32 ip)) 2)
  mod host_count

let ref_yahoo rng ~host_count ~id =
  let clock = ref 0.0 in
  clock := !clock +. Dist.exponential rng ~rate:(1.0 /. 0.05);
  let src_ip = Int64.to_int32 (Prng.bits64 rng) in
  let dst_ip = Int64.to_int32 (Prng.bits64 rng) in
  let s = ref_host ~host_count src_ip and d = ref_host ~host_count dst_ip in
  let src, dst = if s <> d then (s, d) else (s, (d + 1) mod host_count) in
  let demand = Dist.bounded_pareto rng ~shape:1.1 ~lo:1.0 ~hi:400.0 in
  let duration = Dist.lognormal rng ~mu:(log 30.0) ~sigma:1.0 in
  Flow_record.v ~id ~src ~dst ~size_mbit:(demand *. duration)
    ~duration_s:duration ~arrival_s:!clock

let ref_benson rng ~host_count ~id =
  let clock = ref 0.0 in
  clock := !clock +. Dist.lognormal rng ~mu:(log 0.01) ~sigma:1.0;
  let src = Prng.int rng host_count in
  let dst =
    let d = Prng.int rng (host_count - 1) in
    if d >= src then d + 1 else d
  in
  Benson_trace.draw_flow rng ~id ~src ~dst ~arrival_s:!clock

let ref_scaled ~scale (r : Flow_record.t) =
  if scale >= 1.0 then r
  else
    Flow_record.v ~id:r.id ~src:r.src ~dst:r.dst
      ~size_mbit:(r.size_mbit *. scale) ~duration_s:r.duration_s
      ~arrival_s:r.arrival_s

let record_fields (r : Flow_record.t) =
  Printf.sprintf "id %d src %d dst %d size %Lx duration %Lx arrival %Lx" r.id
    r.src r.dst
    (Int64.bits_of_float r.size_mbit)
    (Int64.bits_of_float r.duration_s)
    (Int64.bits_of_float r.arrival_s)

let same_record (a : Flow_record.t) (b : Flow_record.t) =
  a.id = b.id && a.src = b.src && a.dst = b.dst
  && Int64.equal (Int64.bits_of_float a.size_mbit) (Int64.bits_of_float b.size_mbit)
  && Int64.equal (Int64.bits_of_float a.duration_s) (Int64.bits_of_float b.duration_s)
  && Int64.equal (Int64.bits_of_float a.arrival_s) (Int64.bits_of_float b.arrival_s)

let fold_record h (r : Flow_record.t) =
  let module Fnv = Obs.Fnv in
  let h = Fnv.int (Fnv.int (Fnv.int h r.id) r.src) r.dst in
  let h = Fnv.float (Fnv.float h r.size_mbit) r.duration_s in
  Fnv.float h r.arrival_s

(* 10,000 ids on one stream per seed, the draw under test and its
   reference on twin streams. Returns the FNV digest of the draws. *)
let check_draws name ~seed ~draw ~reference =
  let a = Prng.create seed and b = Prng.create seed in
  let h = ref Obs.Fnv.basis in
  for id = 0 to 9_999 do
    let got = draw a id and want = reference b id in
    if not (same_record got want) then
      Alcotest.failf "%s, seed %d, id %d: got %s, want %s" name seed id
        (record_fields got) (record_fields want);
    h := fold_record !h got
  done;
  Alcotest.(check int64) (Printf.sprintf "%s, seed %d: streams in step" name seed)
    (Prng.raw_state b) (Prng.raw_state a);
  Obs.Fnv.hex !h

(* The digests were recorded from [generate ~first_id:id rng ~n:1]
   (and the fill makers built on it) before the single-flow draws
   replaced it. *)
let test_single_flow_draws () =
  let host_count = 128 in
  let scales = [| 1.0; 0.5; 0.25; 1.0 /. 64.0 |] in
  List.iter
    (fun (seed, yahoo, benson, yfill, bfill) ->
      let check name expected ~draw ~reference =
        Alcotest.(check string)
          (Printf.sprintf "%s, seed %d: digest" name seed)
          expected
          (check_draws name ~seed ~draw ~reference)
      in
      check "yahoo next" yahoo
        ~draw:(fun rng id -> Yahoo_trace.next rng ~host_count ~id ~after_s:0.0)
        ~reference:(fun rng id -> ref_yahoo rng ~host_count ~id);
      check "benson next" benson
        ~draw:(fun rng id -> Benson_trace.next rng ~host_count ~id ~after_s:0.0)
        ~reference:(fun rng id -> ref_benson rng ~host_count ~id);
      check "yahoo fill maker" yfill
        ~draw:(fun rng id ->
          Background.yahoo_flow_maker rng ~host_count ~id
            ~scale:scales.(id mod 4))
        ~reference:(fun rng id ->
          ref_scaled ~scale:scales.(id mod 4) (ref_yahoo rng ~host_count ~id));
      check "benson fill maker" bfill
        ~draw:(fun rng id ->
          Background.benson_flow_maker rng ~host_count ~id
            ~scale:scales.(id mod 4))
        ~reference:(fun rng id ->
          ref_scaled ~scale:scales.(id mod 4) (ref_benson rng ~host_count ~id)))
    [
      (1, "8c6622d0bb9adb54", "7a8c71661cefabc2", "272622d0bb9adb54",
       "62ec71661cefabc2");
      (42, "79f71a89d29f6896", "5043544b63b6b16f", "d1571a89d29f6896",
       "9cc3544b63b6b16f");
      (7919, "291841136e02588c", "f5e31daab1e8d8e3", "131841136e02588c",
       "81631daab1e8d8e3");
    ]

(* [generate] chains [next] through the arrivals: its first record of
   fifty, recorded before the single-flow draw existed. *)
let test_generate_first_record_pinned () =
  let check name (r : Flow_record.t) ~src ~dst ~size ~duration ~arrival =
    Alcotest.(check string) name
      (record_fields
         (Flow_record.v ~id:0 ~src ~dst ~size_mbit:size ~duration_s:duration
            ~arrival_s:arrival))
      (record_fields r)
  in
  check "yahoo"
    (Yahoo_trace.generate (Prng.create 9) ~host_count:128 ~n:50).(0)
    ~src:76 ~dst:72 ~size:0x1.c4b3dcb916c97p+7 ~duration:0x1.a41834e774c89p+6
    ~arrival:0x1.79cfa6834c039p-7;
  check "benson"
    (Benson_trace.generate (Prng.create 9) ~host_count:128 ~n:50).(0)
    ~src:85 ~dst:16 ~size:0x1.b4ffde431bc32p+1 ~duration:0x1.0943a24366b9cp-1
    ~arrival:0x1.317dcf81cbc55p-9;
  (* And the later records continue the chain: [next] after the
     previous arrival, on the same stream. *)
  let rng = Prng.create 9 in
  let flows = Yahoo_trace.generate rng ~host_count:128 ~n:3 in
  let rng' = Prng.create 9 in
  let first = Yahoo_trace.next rng' ~host_count:128 ~id:0 ~after_s:0.0 in
  let second =
    Yahoo_trace.next rng' ~host_count:128 ~id:1 ~after_s:first.arrival_s
  in
  Alcotest.(check string) "second record" (record_fields second)
    (record_fields flows.(1))

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
    ("single-flow draws = n:1 draws", `Quick, test_single_flow_draws);
    ("generate first record pinned", `Quick, test_generate_first_record_pinned);
  ]
