(* nu_obs: JSON codec, counters, trace spans, exporters, and the
   no-perturbation guarantee of instrumentation. *)

let of_spec = Test_util.of_spec

let flow ?(id = 0) ?(demand = 50.0) ?(duration = 10.0) ?(arrival = 0.0) src dst
    =
  Flow_record.v ~id ~src ~dst ~size_mbit:(demand *. duration)
    ~duration_s:duration ~arrival_s:arrival

(* A snapshot's value of a named counter (0 when absent), and whether
   every counter in it reads 0. *)
let named_value snap name =
  Option.value (List.assoc_opt name (Obs.Counters.to_alist snap)) ~default:0

let is_zero snap = List.for_all (fun (_, v) -> v = 0) (Obs.Counters.to_alist snap)

(* Runs [f] on a fresh temporary directory, removed afterwards. *)
let with_temp_dir f =
  let dir = Filename.temp_file "nu_obs" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter Sys.remove (Sys.readdir dir |> Array.map (Filename.concat dir));
      Sys.rmdir dir)
    (fun () -> f dir)

(* Small deterministic workload on a k=4 Fat-Tree (mirrors test_sched). *)
let workload ?(n = 5) ?(m = 4) () =
  let next = ref 0 in
  List.init n (fun i ->
      let flows =
        List.init m (fun j ->
            let id = !next in
            incr next;
            let src = (i + j) mod 16 in
            let dst = (src + 3 + j) mod 16 in
            let dst = if dst = src then (dst + 1) mod 16 else dst in
            flow ~id ~demand:(10.0 +. float_of_int (j * 5)) src dst)
      in
      of_spec { Event_gen.event_id = i; arrival_s = 0.0; flows })

let loaded_net () =
  let net = Net_state.create (Fat_tree.to_topology (Fat_tree.create ~k:4 ())) in
  let next = ref 1000 in
  for src = 0 to 7 do
    let dst = 15 - src in
    let r = flow ~id:!next ~demand:300.0 src dst in
    incr next;
    match Routing.select net r with
    | Some p -> ( match Net_state.place net r p with Ok () -> () | Error _ -> ())
    | None -> ()
  done;
  net

let with_memory_sink f =
  let sink, events = Obs.Trace.memory () in
  Obs.Trace.install sink;
  Fun.protect ~finally:Obs.Trace.uninstall (fun () -> f events)

(* ------------------------------------------------------------------ *)
(* Json                                                                *)

let test_json_roundtrip () =
  let v =
    Obs.Json.Obj
      [
        ("null", Obs.Json.Null);
        ("yes", Obs.Json.Bool true);
        ("n", Obs.Json.Int (-42));
        ("pi", Obs.Json.Float 3.140625);
        ("text", Obs.Json.String "line\nbreak \"quoted\" back\\slash");
        ( "nested",
          Obs.Json.List
            [ Obs.Json.Int 1; Obs.Json.Obj [ ("k", Obs.Json.String "v") ] ] );
        ("empty_list", Obs.Json.List []);
        ("empty_obj", Obs.Json.Obj []);
      ]
  in
  match Obs.Json.of_string (Obs.Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "round-trips" true (v = v')
  | Error msg -> Alcotest.failf "parse error: %s" msg

let test_json_float_precision () =
  let f = 0.1 +. 0.2 in
  match Obs.Json.of_string (Obs.Json.to_string (Obs.Json.Float f)) with
  | Ok (Obs.Json.Float f') ->
      Alcotest.(check (float 0.0)) "exact round-trip" f f'
  | Ok _ -> Alcotest.fail "expected a float"
  | Error msg -> Alcotest.failf "parse error: %s" msg

(* Print/parse must be the identity on the whole value space: every
   constructor, control characters, multi-byte escapes, deep nesting.
   Floats are the historical trap — an integral float printed without a
   marker ("1") parses back as Int 1 and the round-trip silently
   retypes the value. *)
let json_gen =
  let open QCheck.Gen in
  let any_byte = map Char.chr (int_range 0 255) in
  let finite f = if Float.is_finite f then f else 0.5 in
  let scalar =
    oneof
      [
        return Obs.Json.Null;
        map (fun b -> Obs.Json.Bool b) bool;
        map (fun i -> Obs.Json.Int i) int;
        map (fun f -> Obs.Json.Float (finite f)) float;
        map
          (fun s -> Obs.Json.String s)
          (string_size ~gen:any_byte (int_bound 12));
      ]
  in
  let key = string_size ~gen:any_byte (int_bound 6) in
  sized
  @@ fix (fun self n ->
         if n <= 0 then scalar
         else
           frequency
             [
               (3, scalar);
               ( 1,
                 map
                   (fun xs -> Obs.Json.List xs)
                   (list_size (int_bound 4) (self (n / 2))) );
               ( 1,
                 map
                   (fun kvs -> Obs.Json.Obj kvs)
                   (list_size (int_bound 4) (pair key (self (n / 2)))) );
             ])

let prop_json_print_parse_identity =
  QCheck.Test.make ~name:"json print/parse is the identity" ~count:1000
    (QCheck.make json_gen ~print:Obs.Json.to_string)
    (fun j ->
      match Obs.Json.of_string (Obs.Json.to_string j) with
      | Ok j' -> j' = j
      | Error _ -> false)

let test_json_integral_float_keeps_type () =
  Alcotest.(check string) "marker forced" "1.0"
    (Obs.Json.to_string (Obs.Json.Float 1.0));
  Alcotest.(check string) "negative too" "-3.0"
    (Obs.Json.to_string (Obs.Json.Float (-3.0)));
  (match Obs.Json.of_string (Obs.Json.to_string (Obs.Json.Float 1.0)) with
  | Ok (Obs.Json.Float f) -> Alcotest.(check (float 0.0)) "stays float" 1.0 f
  | Ok _ -> Alcotest.fail "Float 1.0 no longer parses back as Float"
  | Error m -> Alcotest.fail m);
  match Obs.Json.of_string "1" with
  | Ok (Obs.Json.Int 1) -> ()
  | _ -> Alcotest.fail "bare integers must still parse as Int"

let test_json_control_and_unicode_escapes () =
  let s = "\x00\x01\x1f\b\012\n\r\t\"\\/" in
  (match Obs.Json.of_string (Obs.Json.to_string (Obs.Json.String s)) with
  | Ok (Obs.Json.String s') -> Alcotest.(check string) "control bytes" s s'
  | Ok _ -> Alcotest.fail "expected a string"
  | Error m -> Alcotest.fail m);
  (match Obs.Json.of_string "\"\\u00e9\"" with
  | Ok (Obs.Json.String s) ->
      Alcotest.(check string) "\\u decodes to UTF-8" "\xc3\xa9" s
  | _ -> Alcotest.fail "\\u00e9 should parse");
  match Obs.Json.of_string "\"\\uZZZZ\"" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "invalid \\u escape accepted"

let test_json_nonfinite_is_null () =
  Alcotest.(check string) "nan" "null" (Obs.Json.to_string (Obs.Json.Float Float.nan));
  Alcotest.(check string)
    "inf" "null"
    (Obs.Json.to_string (Obs.Json.Float Float.infinity))

let test_json_parse_errors () =
  let bad = [ "{"; "[1,"; "\"unterminated"; "tru"; "{\"a\" 1}"; "1 2" ] in
  List.iter
    (fun s ->
      match Obs.Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted invalid JSON: %s" s
      | Error _ -> ())
    bad;
  (* \u escape, whitespace, exponents *)
  match Obs.Json.of_string "  { \"a\" : [ 1e3 , \"\\u0041\" ] }  " with
  | Ok v ->
      Alcotest.(check bool)
        "parsed" true
        (Obs.Json.member "a" v
        = Some (Obs.Json.List [ Obs.Json.Float 1000.0; Obs.Json.String "A" ]))
  | Error msg -> Alcotest.failf "parse error: %s" msg

(* ------------------------------------------------------------------ *)
(* Fnv                                                                 *)

let test_fnv_reference_vectors () =
  List.iter
    (fun (s, h) -> Alcotest.(check string) (Printf.sprintf "%S" s) h (Obs.Fnv.string_hex s))
    [ ("", "cbf29ce484222325"); ("a", "af63dc4c8601ec8c"); ("foobar", "85944171f73967e8") ];
  (* A span hashes like the substring it names, from any state. *)
  let s = "xxfoobaryy" in
  Alcotest.(check string) "span = substring" "85944171f73967e8"
    (Obs.Fnv.hex (Obs.Fnv.substring Obs.Fnv.basis s ~pos:2 ~len:6));
  let h = Obs.Fnv.int Obs.Fnv.basis 7 in
  Alcotest.(check bool) "folds from any state" true
    (Obs.Fnv.substring h s ~pos:0 ~len:10 = Obs.Fnv.string h s);
  Alcotest.check_raises "span past the end" (Invalid_argument "Fnv.substring")
    (fun () -> ignore (Obs.Fnv.substring h s ~pos:5 ~len:6))

(* Hashing allocates nothing per byte: 1 MB costs what one byte costs,
   the boxed result and nothing else. *)
let test_fnv_allocation () =
  let big = String.make (1 lsl 20) 'z' in
  let words s =
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (Obs.Fnv.string Obs.Fnv.basis s));
    Gc.minor_words () -. before
  in
  ignore (words "z");
  let one = words "z" in
  Alcotest.(check (float 0.0)) "1 MB allocates 0 minor words per byte" one (words big)

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)

let test_span_lifo_nesting () =
  with_memory_sink (fun events ->
      Obs.Trace.with_span "outer" (fun () ->
          Obs.Trace.with_span "inner" (fun () -> ());
          Obs.Trace.instant "tick");
      let evs = events () in
      let shape =
        List.map
          (fun (e : Obs.Trace.event) ->
            let ph =
              match e.Obs.Trace.phase with
              | Obs.Trace.Begin -> "B"
              | Obs.Trace.End -> "E"
              | Obs.Trace.Instant -> "i"
            in
            (ph, e.Obs.Trace.name, e.Obs.Trace.depth))
          evs
      in
      Alcotest.(check (list (triple string string int)))
        "event shape"
        [
          ("B", "outer", 0);
          ("B", "inner", 1);
          ("E", "inner", 1);
          ("i", "tick", 1);
          ("E", "outer", 0);
        ]
        shape;
      let ts = List.map (fun (e : Obs.Trace.event) -> e.Obs.Trace.ts_ns) evs in
      let rec nondecreasing = function
        | a :: (b :: _ as rest) -> Int64.compare a b <= 0 && nondecreasing rest
        | _ -> true
      in
      Alcotest.(check bool) "timestamps nondecreasing" true (nondecreasing ts))

let test_span_non_lifo_raises () =
  with_memory_sink (fun _ ->
      let a = Obs.Trace.span "a" in
      let b = Obs.Trace.span "b" in
      Alcotest.check_raises "close outer first"
        (Invalid_argument "Trace.finish: non-LIFO close of span a") (fun () ->
          Obs.Trace.finish a);
      Obs.Trace.finish b;
      Obs.Trace.finish a)

let test_span_exception_safety () =
  with_memory_sink (fun events ->
      (try
         Obs.Trace.with_span "boom" (fun () -> failwith "inner failure")
       with Failure _ -> ());
      let evs = events () in
      Alcotest.(check int) "begin and end emitted" 2 (List.length evs);
      match List.rev evs with
      | (last : Obs.Trace.event) :: _ ->
          Alcotest.(check bool)
            "span closed" true
            (last.Obs.Trace.phase = Obs.Trace.End
            && last.Obs.Trace.name = "boom")
      | [] -> Alcotest.fail "no events")

let test_disabled_tracing_is_noop () =
  Alcotest.(check bool) "off by default" false (Obs.Trace.enabled ());
  let sp = Obs.Trace.span ~attrs:[ ("k", Obs.Trace.Int 1) ] "untracked" in
  Obs.Trace.finish sp;
  Obs.Trace.instant "nothing";
  Alcotest.(check int)
    "with_span is just f ()" 7
    (Obs.Trace.with_span "untracked" (fun () -> 7))

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)

let test_counters_snapshot_diff () =
  let before = Obs.Counters.snapshot () in
  Obs.Counters.incr Obs.Counters.State_copies;
  Obs.Counters.incr Obs.Counters.State_copies;
  Obs.Counters.add Obs.Counters.Planner_probes 5;
  let d = Obs.Counters.diff ~before ~after:(Obs.Counters.snapshot ()) in
  Alcotest.(check int) "incr twice" 2 (Obs.Counters.value d Obs.Counters.State_copies);
  Alcotest.(check int) "add 5" 5 (Obs.Counters.value d Obs.Counters.Planner_probes);
  Alcotest.(check int) "untouched" 0 (Obs.Counters.value d Obs.Counters.Engine_rounds);
  Alcotest.(check bool) "not zero" false (is_zero d);
  let d0 = Obs.Counters.diff ~before ~after:before in
  Alcotest.(check bool) "self-diff is zero" true (is_zero d0)

let test_counters_alist_json () =
  Obs.Counters.incr Obs.Counters.State_copies;
  let snap = Obs.Counters.snapshot () in
  let alist = Obs.Counters.to_alist snap in
  (* Fixed keys always render under their stable names, zeros included
     ([shard_rebalances] never moves); named counters (created by other
     tests or telemetry) may follow them. *)
  List.iter
    (fun (name, k) ->
      match List.assoc_opt name alist with
      | Some v -> Alcotest.(check int) name (Obs.Counters.value snap k) v
      | None -> Alcotest.failf "missing key %s" name)
    Obs.Counters.
      [
        ("planner_plans", Planner_plans);
        ("state_copies", State_copies);
        ("engine_rounds", Engine_rounds);
        ("shard_rebalances", Shard_rebalances);
      ];
  Alcotest.(check string) "rendering order starts with planner_plans"
    "planner_plans" (fst (List.hd alist));
  (* JSON form parses back and carries every key. *)
  match Obs.Json.of_string (Obs.Json.to_string (Obs.Counters.to_json snap)) with
  | Ok (Obs.Json.Obj kvs) ->
      Alcotest.(check int) "json keys" (List.length alist) (List.length kvs)
  | Ok _ -> Alcotest.fail "expected an object"
  | Error msg -> Alcotest.failf "parse error: %s" msg

let test_counters_count_pipeline_work () =
  let net = loaded_net () in
  let events = workload () in
  let before = Obs.Counters.snapshot () in
  ignore (Engine.run ~seed:11 ~net ~events (Policy.Lmtf { alpha = 2 }));
  let d = Obs.Counters.diff ~before ~after:(Obs.Counters.snapshot ()) in
  Alcotest.(check bool)
    "rounds counted" true
    (Obs.Counters.value d Obs.Counters.Engine_rounds > 0);
  Alcotest.(check bool)
    "plans counted" true
    (Obs.Counters.value d Obs.Counters.Planner_plans > 0);
  Alcotest.(check bool)
    "probes counted" true
    (Obs.Counters.value d Obs.Counters.Planner_probes > 0);
  Alcotest.(check bool)
    "estimates counted" true
    (Obs.Counters.value d Obs.Counters.Cost_estimates > 0);
  Alcotest.(check int)
    "lmtf executes one event per round"
    (Obs.Counters.value d Obs.Counters.Engine_rounds)
    (Obs.Counters.value d Obs.Counters.Events_executed)

(* ------------------------------------------------------------------ *)
(* Exporters on a real traced run                                      *)

let traced_run () =
  with_memory_sink (fun events ->
      let net = loaded_net () in
      let events_l = workload () in
      ignore (Engine.run ~seed:11 ~net ~events:events_l (Policy.Plmtf { alpha = 2 }));
      events ())

let test_trace_covers_pipeline () =
  let evs = traced_run () in
  let names =
    List.filter_map
      (fun (e : Obs.Trace.event) ->
        if e.Obs.Trace.phase = Obs.Trace.Begin then Some e.Obs.Trace.name
        else None)
      evs
  in
  List.iter
    (fun expected ->
      Alcotest.(check bool)
        (Printf.sprintf "span %s present" expected)
        true (List.mem expected names))
    [ "run"; "round"; "plan"; "estimate"; "execute" ];
  (* Begin/End balance: every span closes. *)
  let balance =
    List.fold_left
      (fun acc (e : Obs.Trace.event) ->
        match e.Obs.Trace.phase with
        | Obs.Trace.Begin -> acc + 1
        | Obs.Trace.End -> acc - 1
        | Obs.Trace.Instant -> acc)
      0 evs
  in
  Alcotest.(check int) "begin/end balanced" 0 balance

(* The Chrome trace document [Export.write_chrome] writes, parsed back. *)
let chrome_json evs =
  let path = Filename.temp_file "nu_chrome" ".json" in
  Obs.Export.write_chrome path evs;
  let text = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  match Obs.Json.of_string text with
  | Ok v -> v
  | Error msg -> Alcotest.failf "unparseable chrome trace: %s" msg

let test_chrome_export_parses () =
  let evs = traced_run () in
  match Obs.Json.member "traceEvents" (chrome_json evs) with
  | Some (Obs.Json.List items) ->
      Alcotest.(check int)
        "one trace event per span event" (List.length evs)
        (List.length items);
      List.iter
        (fun item ->
          match (Obs.Json.member "ph" item, Obs.Json.member "ts" item) with
          | Some (Obs.Json.String _), Some _ -> ()
          | _ -> Alcotest.fail "trace event missing ph/ts")
        items
  | _ -> Alcotest.fail "no traceEvents array"

(* ------------------------------------------------------------------ *)
(* Instrumentation must not perturb results                            *)

let test_span_unwind_on_raise () =
  (* A raising function that leaves a child span open: with_span must
     close the child and itself (well-formed tree) and leave the stack
     usable for subsequent spans. *)
  with_memory_sink (fun events ->
      (try
         Obs.Trace.with_span "outer" (fun () ->
             let _child = Obs.Trace.span "child" in
             failwith "mid-span failure")
       with Failure _ -> ());
      Obs.Trace.with_span "after" (fun () -> ());
      let shape =
        List.map
          (fun (e : Obs.Trace.event) ->
            let ph =
              match e.Obs.Trace.phase with
              | Obs.Trace.Begin -> "B"
              | Obs.Trace.End -> "E"
              | Obs.Trace.Instant -> "i"
            in
            (ph, e.Obs.Trace.name, e.Obs.Trace.depth))
          (events ())
      in
      Alcotest.(check (list (triple string string int)))
        "children unwound, stack clean"
        [
          ("B", "outer", 0);
          ("B", "child", 1);
          ("E", "child", 1);
          ("E", "outer", 0);
          ("B", "after", 0);
          ("E", "after", 0);
        ]
        shape;
      let unwound =
        List.filter
          (fun (e : Obs.Trace.event) ->
            List.mem_assoc "unwound" e.Obs.Trace.attrs)
          (events ())
      in
      Alcotest.(check int) "both closes marked unwound" 2 (List.length unwound))

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)

let test_histogram_exact_side_stats () =
  let h = Obs.Histogram.create () in
  Alcotest.(check bool) "fresh is empty" true (Obs.Histogram.is_empty h);
  List.iter (Obs.Histogram.record h) [ 3.0; 1.0; 4.0; 1.0; 5.0; 0.0 ];
  for _ = 1 to 4 do
    Obs.Histogram.record h 2.0
  done;
  Alcotest.(check int) "count" 10 (Obs.Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum" 22.0 (Obs.Histogram.sum h);
  Alcotest.(check (float 1e-9)) "mean" 2.2 (Obs.Histogram.mean h);
  let side name = Obs.Json.member name (Obs.Histogram.to_json h) in
  Alcotest.(check bool) "min exact" true (side "min" = Some (Obs.Json.Float 0.0));
  Alcotest.(check bool) "max exact" true (side "max" = Some (Obs.Json.Float 5.0));
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Histogram.record: sample must be finite and non-negative")
    (fun () -> Obs.Histogram.record h (-1.0))

let test_histogram_quantile_bounds () =
  let h = Obs.Histogram.create ~sub_buckets:64 () in
  for i = 1 to 1000 do
    Obs.Histogram.record h (float_of_int i)
  done;
  let rel = 1.0 /. 64.0 in
  List.iter
    (fun (q, exact) ->
      let est = Obs.Histogram.quantile h q in
      Alcotest.(check bool)
        (Printf.sprintf "q=%.3f within rel error" q)
        true
        (Float.abs (est -. exact) <= (rel *. exact) +. 1e-9))
    [ (0.0, 1.0); (0.5, 500.5); (0.9, 900.1); (0.99, 990.01); (1.0, 1000.0) ];
  Alcotest.(check (float 0.0))
    "p100 clamps to max" 1000.0
    (Obs.Histogram.quantile h 1.0)

let prop_histogram_matches_descriptive =
  QCheck.Test.make ~name:"histogram quantiles track Descriptive.percentile"
    ~count:100
    QCheck.(list (float_range 0.0 1000.0))
    (fun samples ->
      QCheck.assume (samples <> []);
      let h = Obs.Histogram.create ~sub_buckets:64 () in
      List.iter (Obs.Histogram.record h) samples;
      let arr = Array.of_list samples in
      let rel = 1.0 /. 64.0 in
      List.for_all
        (fun q ->
          let exact = Descriptive.percentile arr (q *. 100.0) in
          let est = Obs.Histogram.quantile h q in
          Float.abs (est -. exact) <= (rel *. Float.abs exact) +. 1e-9)
        [ 0.0; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 0.999; 1.0 ])

let prop_histogram_merge_associative =
  QCheck.Test.make ~name:"histogram merge is associative" ~count:100
    QCheck.(
      triple
        (list (float_range 0.0 500.0))
        (list (float_range 0.0 500.0))
        (list (float_range 0.0 500.0)))
    (fun (xs, ys, zs) ->
      let mk samples =
        let h = Obs.Histogram.create () in
        List.iter (Obs.Histogram.record h) samples;
        h
      in
      let a () = mk xs and b () = mk ys and c () = mk zs in
      let l = Obs.Histogram.merge (Obs.Histogram.merge (a ()) (b ())) (c ())
      and r = Obs.Histogram.merge (a ()) (Obs.Histogram.merge (b ()) (c ())) in
      let side name h = Obs.Json.member name (Obs.Histogram.to_json h) in
      Obs.Histogram.count l = Obs.Histogram.count r
      && Float.abs (Obs.Histogram.sum l -. Obs.Histogram.sum r)
         <= 1e-9 *. (1.0 +. Float.abs (Obs.Histogram.sum l))
      && (Obs.Histogram.is_empty l
         || side "min" l = side "min" r
            && side "max" l = side "max" r
            && List.for_all
                 (fun q ->
                   Obs.Histogram.quantile l q = Obs.Histogram.quantile r q)
                 [ 0.0; 0.25; 0.5; 0.9; 0.99; 1.0 ]))

let test_histogram_json () =
  let h = Obs.Histogram.create ~sub_buckets:8 () in
  List.iter (Obs.Histogram.record h) [ 0.0; 1.0; 2.5; 1000.0 ];
  match Obs.Json.of_string (Obs.Json.to_string (Obs.Histogram.to_json h)) with
  | Error msg -> Alcotest.failf "unparseable histogram json: %s" msg
  | Ok v -> (
      Alcotest.(check bool)
        "count" true
        (Obs.Json.member "count" v = Some (Obs.Json.Int 4));
      Alcotest.(check bool)
        "sub_buckets" true
        (Obs.Json.member "sub_buckets" v = Some (Obs.Json.Int 8));
      match Obs.Json.member "buckets" v with
      | Some (Obs.Json.List buckets) ->
          let total =
            List.fold_left
              (fun acc b ->
                match b with
                | Obs.Json.List [ _; _; Obs.Json.Int n ] -> acc + n
                | _ -> Alcotest.fail "bucket is not a [lo, hi, count] triple")
              0 buckets
          in
          Alcotest.(check int) "bucket counts sum to count" 4 total
      | _ -> Alcotest.fail "no buckets list")

(* A registry histogram by name, from a snapshot. *)
let registry_find name = List.assoc_opt name (Obs.Histogram.Registry.snapshot ())

let test_histogram_registry_gated () =
  Alcotest.(check bool)
    "off by default" false
    (Obs.Histogram.Registry.enabled ());
  Obs.Histogram.Registry.reset ();
  Obs.Histogram.Registry.record "t.off" 1.0;
  Alcotest.(check bool)
    "record while off is a no-op" true
    (registry_find "t.off" = None);
  Obs.Histogram.Registry.enable ();
  Fun.protect ~finally:(fun () ->
      Obs.Histogram.Registry.disable ();
      Obs.Histogram.Registry.reset ())
  @@ fun () ->
  Obs.Histogram.Registry.record "t.b" 2.0;
  Obs.Histogram.Registry.record "t.a" 1.0;
  Obs.Histogram.Registry.record "t.a" 3.0;
  (match registry_find "t.a" with
  | Some h -> Alcotest.(check int) "live histogram" 2 (Obs.Histogram.count h)
  | None -> Alcotest.fail "t.a missing");
  let snap = Obs.Histogram.Registry.snapshot () in
  Alcotest.(check (list string))
    "snapshot sorted by name" [ "t.a"; "t.b" ] (List.map fst snap);
  (* Snapshot copies are independent of later recording. *)
  Obs.Histogram.Registry.record "t.a" 9.0;
  Alcotest.(check int)
    "snapshot is a copy" 2
    (Obs.Histogram.count (List.assoc "t.a" snap))

(* ------------------------------------------------------------------ *)
(* Profile                                                             *)

let ev phase name ts depth =
  {
    Obs.Trace.phase;
    name;
    ts_ns = Int64.of_int ts;
    depth;
    attrs = [];
  }

let test_profile_tree_merges_siblings () =
  (* run[0..200] containing plan[10..40], plan[40..100], exec[100..150]:
     same-named siblings merge, self = total minus children. *)
  let events =
    [
      ev Obs.Trace.Begin "run" 0 0;
      ev Obs.Trace.Begin "plan" 10 1;
      ev Obs.Trace.End "plan" 40 1;
      ev Obs.Trace.Begin "plan" 40 1;
      ev Obs.Trace.End "plan" 100 1;
      ev Obs.Trace.Begin "exec" 100 1;
      ev Obs.Trace.End "exec" 150 1;
      ev Obs.Trace.End "run" 200 0;
    ]
  in
  let t = Obs.Profile.of_events events in
  Alcotest.(check int) "span count" 4 (Obs.Profile.span_count t);
  match t with
  | [ root ] ->
      Alcotest.(check string) "root" "run" root.Obs.Profile.name;
      Alcotest.(check int) "root count" 1 root.Obs.Profile.count;
      Alcotest.(check int64) "root total" 200L root.Obs.Profile.total_ns;
      Alcotest.(check int64) "root self" 60L root.Obs.Profile.self_ns;
      let names =
        List.map (fun n -> n.Obs.Profile.name) root.Obs.Profile.children
      in
      Alcotest.(check (list string))
        "children sorted by total" [ "plan"; "exec" ] names;
      let plan = List.hd root.Obs.Profile.children in
      Alcotest.(check int) "plan merged" 2 plan.Obs.Profile.count;
      Alcotest.(check int64) "plan total" 90L plan.Obs.Profile.total_ns;
      let hot = Obs.Profile.hotspots t in
      Alcotest.(check (list string))
        "hotspots by self time" [ "plan"; "run"; "exec" ]
        (List.map (fun (n, _, _, _) -> n) hot);
      let stacks =
        List.sort compare
          (List.filter
             (fun l -> l <> "")
             (String.split_on_char '\n' (Obs.Profile.collapsed t)))
      in
      Alcotest.(check (list string))
        "collapsed stacks"
        [ "run 60"; "run;exec 50"; "run;plan 90" ]
        stacks
  | _ -> Alcotest.fail "expected a single root"

let test_profile_tolerates_truncation () =
  (* A span left open closes at the last timestamp seen. *)
  let events =
    [
      ev Obs.Trace.Begin "run" 0 0;
      ev Obs.Trace.Begin "round" 10 1;
      ev Obs.Trace.End "round" 30 1;
      ev Obs.Trace.Begin "round" 30 1;
    ]
  in
  match Obs.Profile.of_events events with
  | [ root ] ->
      Alcotest.(check int64)
        "open root closed at last ts" 30L root.Obs.Profile.total_ns;
      Alcotest.(check int) "both rounds counted" 3 (Obs.Profile.span_count [ root ])
  | _ -> Alcotest.fail "expected a single root"

let test_profile_of_real_run () =
  let evs = traced_run () in
  let t = Obs.Profile.of_events evs in
  let hot = Obs.Profile.hotspots ~top:100 t in
  List.iter
    (fun expected ->
      Alcotest.(check bool)
        (Printf.sprintf "%s in hotspots" expected)
        true
        (List.exists (fun (n, _, _, _) -> n = expected) hot))
    [ "run"; "round"; "plan"; "estimate" ];
  Alcotest.(check bool)
    "collapsed non-empty" true
    (String.length (Obs.Profile.collapsed t) > 0);
  match Obs.Json.of_string (Obs.Json.to_string (Obs.Profile.to_json t)) with
  | Ok v ->
      Alcotest.(check bool)
        "spans count exported" true
        (Obs.Json.member "spans" v = Some (Obs.Json.Int (Obs.Profile.span_count t)))
  | Error msg -> Alcotest.failf "unparseable profile json: %s" msg

(* ------------------------------------------------------------------ *)
(* Regression gate                                                     *)

let bench_doc ?schema ?(mode = "full") ?(seed = 42) ?(n_events = 120) scenarios
    =
  Obs.Json.Obj
    ((match schema with
     | Some v -> [ ("schema_version", Obs.Json.Int v) ]
     | None -> [])
    @ [
        ("mode", Obs.Json.String mode);
        ("seed", Obs.Json.Int seed);
        ("n_events", Obs.Json.Int n_events);
        ( "scenarios",
          Obs.Json.List
            (List.map
               (fun (name, digest, wall) ->
                 Obs.Json.Obj
                   [
                     ("name", Obs.Json.String name);
                     ("digest", Obs.Json.String digest);
                     ("planning_wall_s", Obs.Json.Float wall);
                   ])
               scenarios) );
      ])

let check_gate ?max_regress ~baseline ~current () =
  match Obs.Regress.check ?max_regress ~baseline ~current () with
  | Ok r -> r
  | Error e -> Alcotest.failf "expected comparable documents: %s" e

let test_regress_pass_and_wall_regression () =
  let baseline = bench_doc [ ("lmtf", "aaaa", 2.0); ("reorder", "bbbb", 10.0) ] in
  let same =
    bench_doc ~schema:Obs.Regress.schema_version
      [ ("lmtf", "aaaa", 2.1); ("reorder", "bbbb", 9.0) ]
  in
  let r = check_gate ~baseline ~current:same () in
  Alcotest.(check (list string)) "within tolerance passes" [] r.Obs.Regress.failures;
  (* Injected 15%+ planning-wall regression must fail the gate. *)
  let slow =
    bench_doc [ ("lmtf", "aaaa", 2.0 *. 1.2); ("reorder", "bbbb", 10.0) ]
  in
  let r = check_gate ~baseline ~current:slow () in
  Alcotest.(check int) "regression caught" 1 (List.length r.Obs.Regress.failures);
  (* A looser tolerance accepts the same slowdown. *)
  let r = check_gate ~max_regress:0.25 ~baseline ~current:slow () in
  Alcotest.(check (list string)) "tolerance is a dial" [] r.Obs.Regress.failures

let test_regress_digest_and_missing_scenario () =
  let baseline = bench_doc [ ("lmtf", "aaaa", 2.0); ("reorder", "bbbb", 10.0) ] in
  let drifted = bench_doc [ ("lmtf", "cccc", 2.0) ] in
  let r = check_gate ~baseline ~current:drifted () in
  Alcotest.(check int)
    "digest change + missing scenario" 2
    (List.length r.Obs.Regress.failures);
  (* Extra scenarios in the current run are a note, not a failure. *)
  let wider =
    bench_doc
      [ ("lmtf", "aaaa", 2.0); ("reorder", "bbbb", 10.0); ("new", "dddd", 1.0) ]
  in
  let r = check_gate ~baseline ~current:wider () in
  Alcotest.(check (list string)) "new scenario passes" [] r.Obs.Regress.failures;
  Alcotest.(check bool) "but is noted" true (r.Obs.Regress.notes <> [])

let test_regress_incomparable () =
  let baseline = bench_doc [ ("lmtf", "aaaa", 2.0) ] in
  (* Schema absence (historical baseline) is accepted... *)
  let current = bench_doc ~schema:Obs.Regress.schema_version [ ("lmtf", "aaaa", 2.0) ] in
  (match Obs.Regress.check ~baseline ~current () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "absent schema_version must compare: %s" e);
  (* ...but a present-and-different one is not. *)
  let future = bench_doc ~schema:(Obs.Regress.schema_version + 1) [] in
  (match Obs.Regress.check ~baseline:current ~current:future () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "schema mismatch must be incomparable");
  (* Different workloads never compare. *)
  let quick = bench_doc ~mode:"quick" ~n_events:40 [ ("lmtf", "aaaa", 0.2) ] in
  match Obs.Regress.check ~baseline ~current:quick () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "workload mismatch must be incomparable"

(* ------------------------------------------------------------------ *)
(* Engine integration: histogram recording                            *)

let test_engine_histograms () =
  let go ~obs =
    let net = loaded_net () in
    let events = workload () in
    if obs then begin
      Obs.Histogram.Registry.reset ();
      Obs.Histogram.Registry.enable ()
    end;
    let r =
      Fun.protect ~finally:(fun () ->
          if obs then Obs.Histogram.Registry.disable ())
      @@ fun () ->
      Engine.run ~seed:11 ~net ~events (Policy.Lmtf { alpha = 2 })
    in
    (Metrics.of_run r, r)
  in
  let plain, _ = go ~obs:false in
  let observed, r = go ~obs:true in
  Alcotest.(check bool)
    "histograms do not perturb the run" true (plain = observed);
  List.iter
    (fun name ->
      match registry_find name with
      | Some h ->
          Alcotest.(check int)
            (name ^ " one sample per event")
            (Array.length r.Engine.events)
            (Obs.Histogram.count h)
      | None -> Alcotest.failf "%s not recorded" name)
    [ "engine.event_service_s"; "engine.event_queuing_s" ];
  List.iter
    (fun name ->
      match registry_find name with
      | Some h ->
          Alcotest.(check bool) (name ^ " recorded") true (Obs.Histogram.count h > 0)
      | None -> Alcotest.failf "%s not recorded" name)
    [ "planner.plan_latency_s"; "planner.probe_latency_s"; "planner.moves_per_event" ];
  Obs.Histogram.Registry.reset ()

(* ------------------------------------------------------------------ *)
(* Named counters: late registration                                   *)

(* Regression: a named counter created *after* [before] was snapshotted
   must still appear in the diff (against an implicit 0), not vanish. *)
let test_counters_late_registration_diff () =
  let name = "test.late_registration" in
  let before = Obs.Counters.snapshot () in
  Obs.Counters.incr_named name;
  Obs.Counters.add_named name 4;
  let after = Obs.Counters.snapshot () in
  let d = Obs.Counters.diff ~before ~after in
  Alcotest.(check int) "late counter diffs against 0" 5
    (named_value d name);
  Alcotest.(check bool)
    "alist carries it" true
    (List.assoc_opt name (Obs.Counters.to_alist d) = Some 5);
  (* The asymmetric direction too: present in before, absent from a
     fresh process state — union means it still diffs (to a negative
     delta here, since diff is blind subtraction). *)
  let d0 = Obs.Counters.diff ~before:after ~after in
  Alcotest.(check int) "self-diff zero" 0 (named_value d0 name);
  Alcotest.(check bool) "self-diff is_zero" true (is_zero d0);
  Alcotest.check_raises "empty name rejected"
    (Invalid_argument "Counters.add_named: empty name") (fun () ->
      Obs.Counters.incr_named "")

(* The robustness counters (durable store + supervisor) go through the
   named registry, so they ride the same snapshot/diff machinery as the
   fixed keys: a diff over a region that bumped them reports exactly
   the deltas, symmetrically in both directions, whether or not the
   names existed when [before] was taken. *)
let test_robustness_counters_snapshot_diff () =
  let bumps =
    [
      ("store.frames_corrupt", 2);
      ("supervisor.restarts", 3);
      ("recovery.fallback_depth", 1);
    ]
  in
  let before = Obs.Counters.snapshot () in
  List.iter (fun (name, n) -> Obs.Counters.add_named name n) bumps;
  let after = Obs.Counters.snapshot () in
  let d = Obs.Counters.diff ~before ~after in
  List.iter
    (fun (name, n) ->
      Alcotest.(check int) (name ^ " delta") n (named_value d name);
      Alcotest.(check bool)
        (name ^ " listed") true
        (List.assoc_opt name (Obs.Counters.to_alist d) = Some n))
    bumps;
  (* Symmetry: swapping before/after negates every delta. *)
  let d' = Obs.Counters.diff ~before:after ~after:before in
  List.iter
    (fun (name, n) ->
      Alcotest.(check int) (name ^ " negated") (-n)
        (named_value d' name))
    bumps;
  Alcotest.(check bool) "self-diff is zero" true
    (is_zero (Obs.Counters.diff ~before:after ~after))

(* ------------------------------------------------------------------ *)
(* Histogram merge with mismatched bucket configs                      *)

let prop_histogram_merge_mismatch_raises =
  QCheck.Test.make ~name:"histogram merge rejects sub_buckets mismatch"
    ~count:50
    QCheck.(
      triple (int_range 0 5) (int_range 0 5) (list (float_range 0.0 100.0)))
    (fun (ea, eb, samples) ->
      QCheck.assume (ea <> eb);
      let mk e =
        let h = Obs.Histogram.create ~sub_buckets:(1 lsl (e + 1)) () in
        List.iter (Obs.Histogram.record h) samples;
        h
      in
      try
        ignore (Obs.Histogram.merge (mk ea) (mk eb));
        false
      with Invalid_argument _ -> true)

let prop_histogram_merge_equals_concat =
  QCheck.Test.make
    ~name:"histogram merge equals one histogram over concatenated samples"
    ~count:100
    QCheck.(
      pair (list (float_range 0.0 500.0)) (list (float_range 0.0 500.0)))
    (fun (xs, ys) ->
      let mk samples =
        let h = Obs.Histogram.create ~sub_buckets:16 () in
        List.iter (Obs.Histogram.record h) samples;
        h
      in
      let merged = Obs.Histogram.merge (mk xs) (mk ys) in
      let whole = mk (xs @ ys) in
      Obs.Histogram.count merged = Obs.Histogram.count whole
      && Obs.Histogram.buckets merged = Obs.Histogram.buckets whole
      && (Obs.Histogram.is_empty whole
         || List.for_all
              (fun q ->
                Obs.Histogram.quantile merged q = Obs.Histogram.quantile whole q)
              [ 0.0; 0.5; 0.99; 1.0 ]))

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

let test_lifecycle_stamps_and_jsonl () =
  let dir = Filename.temp_file "nu_lifecycle" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let path = Filename.concat dir "lifecycle.jsonl" in
  let lc = Obs.Lifecycle.create ~path () in
  Obs.Lifecycle.stamp lc ~id:7 ~tenant:"t-a" ~tick:0 ~t_s:0.0
    Obs.Lifecycle.Arrived;
  Obs.Lifecycle.stamp lc ~id:7 ~tick:0 ~t_s:0.0 Obs.Lifecycle.Admitted;
  Obs.Lifecycle.stamp lc ~id:7 ~tick:1 ~t_s:0.05
    (Obs.Lifecycle.Submitted { wait_ticks = 1 });
  Obs.Lifecycle.stamp lc ~id:7 ~tick:1 ~t_s:0.05
    (Obs.Lifecycle.Planned { round = 0; co_scheduled = true });
  Alcotest.(check (option string))
    "tenant inherited while in flight" (Some "t-a")
    (Obs.Lifecycle.tenant_of lc 7);
  Alcotest.(check int) "in flight" 1 (Obs.Lifecycle.in_flight lc);
  Obs.Lifecycle.stamp lc ~id:7 ~tick:2 ~t_s:0.1
    (Obs.Lifecycle.Completed { ect_s = 0.1 });
  Alcotest.(check (option string))
    "terminal stamp retires attribution" None
    (Obs.Lifecycle.tenant_of lc 7);
  Alcotest.(check int) "nothing in flight" 0 (Obs.Lifecycle.in_flight lc);
  Alcotest.(check int) "five stamps" 5 (Obs.Lifecycle.stamped lc);
  Obs.Lifecycle.close lc;
  (* The streamed record log reads back stamp for stamp. *)
  (match Obs.Lifecycle.read_log path with
  | Error m -> Alcotest.failf "read_log: %s" m
  | Ok { Obs.Store.entries; corrupt; _ } ->
      Alcotest.(check bool) "no damage" true (corrupt = []);
      Alcotest.(check int) "one record per stamp" 5 (List.length entries);
      Alcotest.(check bool)
        "stage order preserved" true
        (List.map (fun e -> e.Obs.Lifecycle.stage) entries
        = Obs.Lifecycle.
            [
              Arrived;
              Admitted;
              Submitted { wait_ticks = 1 };
              Planned { round = 0; co_scheduled = true };
              Completed { ect_s = 0.1 };
            ]);
      Alcotest.(check bool)
        "attribution inherited" true
        (List.for_all (fun e -> e.Obs.Lifecycle.tenant = "t-a") entries));
  Sys.remove path;
  Sys.rmdir dir

let test_lifecycle_entry_json_roundtrip () =
  let entries =
    [
      Obs.Lifecycle.Arrived;
      Obs.Lifecycle.Admitted;
      Obs.Lifecycle.Deferred;
      Obs.Lifecycle.Submitted { wait_ticks = 3 };
      Obs.Lifecycle.Planned { round = 9; co_scheduled = false };
      Obs.Lifecycle.Aborted { round = 9 };
      Obs.Lifecycle.Retry_scheduled { ready_s = 1.25 };
      Obs.Lifecycle.Completed { ect_s = 0.5 };
      Obs.Lifecycle.Degraded { ect_s = 2.0; failed_items = 2 };
    ]
    |> List.mapi (fun i stage ->
           { Obs.Lifecycle.id = i; tenant = "t"; tick = i; t_s = 0.1; stage })
  in
  (* Every stage encodes and decodes through the record log. *)
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "lifecycle.jsonl" in
      let lc = Obs.Lifecycle.create ~path () in
      List.iter
        (fun (e : Obs.Lifecycle.entry) ->
          Obs.Lifecycle.stamp lc ~id:e.id ~tenant:e.tenant ~tick:e.tick
            ~t_s:e.t_s e.stage)
        entries;
      Obs.Lifecycle.close lc;
      match Obs.Lifecycle.read_log path with
      | Ok { Obs.Store.entries = read; _ } ->
          List.iteri
            (fun i e ->
              Alcotest.(check bool)
                (Printf.sprintf "stage %d round-trips" i)
                true
                (List.nth_opt read i = Some e))
            entries
      | Error m -> Alcotest.failf "read_log: %s" m)

(* ------------------------------------------------------------------ *)
(* Fairness                                                            *)

let test_fairness_jain_and_fold () =
  let f = Obs.Fairness.create () in
  let observe tenant stage = Obs.Fairness.observe f ~tenant stage in
  let completed ect_s = Obs.Lifecycle.Completed { ect_s } in
  Alcotest.(check (option (float 0.0)))
    "no completions, no index" None (Obs.Fairness.jain_index f);
  (* Stages that do not count create no tenant. *)
  List.iter (observe "idle")
    [
      Obs.Lifecycle.Arrived;
      Obs.Lifecycle.Deferred;
      Obs.Lifecycle.Planned { round = 0; co_scheduled = false };
      Obs.Lifecycle.Aborted { round = 0 };
      Obs.Lifecycle.Retry_scheduled { ready_s = 1.0 };
    ];
  Alcotest.(check int) "ignored stages add no tenant" 0
    (List.length (Obs.Fairness.view f));
  observe "a" Obs.Lifecycle.Admitted;
  observe "b" Obs.Lifecycle.Admitted;
  observe "a" (Obs.Lifecycle.Submitted { wait_ticks = 2 });
  observe "a" (completed 1.0);
  observe "b" (Obs.Lifecycle.Degraded { ect_s = 1.0; failed_items = 1 });
  (* Equal means => perfectly fair. *)
  (match Obs.Fairness.jain_index f with
  | Some j -> Alcotest.(check (float 1e-9)) "equal means" 1.0 j
  | None -> Alcotest.fail "index expected");
  observe "a" (completed 1.0);
  (* a: mean 1.0 over 2; b: mean 1.0 — still equal. Skew b hard. *)
  observe "b" (completed 31.0);
  (match Obs.Fairness.jain_index f with
  | Some j ->
      (* means 1 and 16: (17)^2 / (2 * 257) = 289/514. *)
      Alcotest.(check (float 1e-6)) "skewed index" (289.0 /. 514.0) j
  | None -> Alcotest.fail "index expected");
  match Obs.Fairness.view f with
  | [ a; b ] ->
      Alcotest.(check string) "a first" "a" a.Obs.Fairness.v_tenant;
      Alcotest.(check int) "a drained" 1 a.Obs.Fairness.v_drained;
      Alcotest.(check int) "a completed" 2 a.Obs.Fairness.v_completed;
      Alcotest.(check int) "degraded counts as completed" 2
        b.Obs.Fairness.v_completed;
      Alcotest.(check int) "b degraded" 1 b.Obs.Fairness.v_degraded;
      Alcotest.(check int) "b admitted" 1 b.Obs.Fairness.v_admitted
  | _ -> Alcotest.fail "two tenants expected"

(* ------------------------------------------------------------------ *)
(* OpenMetrics exposition                                              *)

(* Internal names are mangled into the family name a histogram renders
   under. *)
let test_expo_metric_name () =
  List.iter
    (fun (input, expected) ->
      let doc =
        Obs.Expo.render ~histograms:[ (input, Obs.Histogram.create ()) ] ()
      in
      Alcotest.(check bool) input true
        (List.mem
           (Printf.sprintf "# TYPE %s histogram" expected)
           (String.split_on_char '\n' doc)))
    [
      ("serve.admission_wait_s", "nu_serve_admission_wait_seconds");
      ("planner_plans", "nu_planner_plans");
      ("Weird-Name.1", "nu_weird_name_1");
      ("telemetry.expo_writes", "nu_telemetry_expo_writes");
    ]

let test_expo_render_validates () =
  let f = Obs.Fairness.create () in
  let tenant = "quoted\"tenant\nx" in
  Obs.Fairness.observe f ~tenant Obs.Lifecycle.Admitted;
  Obs.Fairness.observe f ~tenant (Obs.Lifecycle.Completed { ect_s = 0.25 });
  let h = Obs.Histogram.create ~sub_buckets:4 () in
  List.iter (Obs.Histogram.record h) [ 0.1; 0.2; 3.0 ];
  let doc =
    Obs.Expo.render
      ~counters:(Obs.Counters.snapshot ())
      ~histograms:[ ("serve.wait_s", h) ]
      ~fairness:f ()
  in
  (match Obs.Expo.validate doc with
  | Ok () -> ()
  | Error m -> Alcotest.failf "rendered document rejected: %s" m);
  Alcotest.(check bool)
    "self-terminated" true
    (String.length doc >= 6
    && String.sub doc (String.length doc - 6) 6 = "# EOF\n");
  (* Histogram families render cumulatively with a +Inf catch-all. *)
  Alcotest.(check bool)
    "+Inf bucket" true
    (let substr = "nu_serve_wait_seconds_bucket{le=\"+Inf\"} 3" in
     let rec find i =
       i + String.length substr <= String.length doc
       && (String.sub doc i (String.length substr) = substr || find (i + 1))
     in
     find 0);
  (* Malformed documents are rejected with a line number. *)
  List.iter
    (fun (label, bad) ->
      match Obs.Expo.validate bad with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "accepted %s" label)
    [
      ("missing EOF", "# TYPE nu_x counter\nnu_x_total 1\n");
      ("undeclared family", "nu_ghost 1\n# EOF\n");
      ("bad value", "# TYPE nu_x gauge\nnu_x yes\n# EOF\n");
      ("unterminated label", "# TYPE nu_x gauge\nnu_x{a=\"b} 1\n# EOF\n");
      ( "text after EOF",
        "# TYPE nu_x gauge\nnu_x 1\n# EOF\nnu_x 2\n" );
    ]

(* ------------------------------------------------------------------ *)
(* Chrome flow events                                                  *)

let test_chrome_flow_events () =
  let mk ts attrs =
    {
      Obs.Trace.phase = Obs.Trace.Instant;
      name = "lifecycle";
      ts_ns = Int64.of_int ts;
      depth = 0;
      attrs;
    }
  in
  let events =
    [
      mk 0 [ ("flow", Obs.Trace.Str "s"); ("id", Obs.Trace.Int 7) ];
      mk 1000 [ ("flow", Obs.Trace.Str "t"); ("id", Obs.Trace.Int 7) ];
      mk 2000 [ ("flow", Obs.Trace.Str "f"); ("id", Obs.Trace.Int 7) ];
      (* No flow attrs: stays an ordinary instant. *)
      mk 3000 [];
    ]
  in
  match Obs.Json.member "traceEvents" (chrome_json events) with
  | Some (Obs.Json.List [ s; t; f; plain ]) ->
      let ph v = Obs.Json.member "ph" v in
      Alcotest.(check bool) "flow start" true (ph s = Some (Obs.Json.String "s"));
      Alcotest.(check bool) "flow step" true (ph t = Some (Obs.Json.String "t"));
      Alcotest.(check bool) "flow finish" true (ph f = Some (Obs.Json.String "f"));
      Alcotest.(check bool)
        "finish binds enclosing" true
        (Obs.Json.member "bp" f = Some (Obs.Json.String "e"));
      Alcotest.(check bool)
        "flow id threaded" true
        (Obs.Json.member "id" s = Some (Obs.Json.Int 7));
      Alcotest.(check bool)
        "plain instant untouched" true
        (ph plain = Some (Obs.Json.String "i"))
  | _ -> Alcotest.fail "expected four trace events"

(* ------------------------------------------------------------------ *)
(* Regress delta document                                              *)

let test_regress_delta_json () =
  let baseline = bench_doc [ ("lmtf", "aaaa", 2.0); ("gone", "gggg", 1.0) ] in
  let current = bench_doc [ ("lmtf", "bbbb", 3.0); ("new", "nnnn", 1.0) ] in
  let doc = Obs.Regress.delta_json ~baseline ~current () in
  Alcotest.(check bool)
    "digest change fails" true
    (Obs.Json.member "result" doc = Some (Obs.Json.String "fail"));
  (match Obs.Json.member "scenarios" doc with
  | Some (Obs.Json.List [ lmtf; gone; fresh ]) ->
      Alcotest.(check bool)
        "digest mismatch flagged" true
        (Obs.Json.member "digest_match" lmtf = Some (Obs.Json.Bool false));
      Alcotest.(check bool)
        "wall delta present" true
        (Obs.Json.member "planning_wall_delta_pct" lmtf <> None);
      Alcotest.(check bool)
        "missing scenario statused" true
        (Obs.Json.member "status" gone
        = Some (Obs.Json.String "missing_from_current"));
      Alcotest.(check bool)
        "new scenario statused" true
        (Obs.Json.member "status" fresh
        = Some (Obs.Json.String "new_in_current"))
  | _ -> Alcotest.fail "expected three scenario deltas");
  (* Incomparable runs still carry best-effort deltas. *)
  let quick = bench_doc ~mode:"quick" ~n_events:40 [ ("lmtf", "aaaa", 0.2) ] in
  let doc = Obs.Regress.delta_json ~baseline ~current:quick () in
  Alcotest.(check bool)
    "incomparable result" true
    (Obs.Json.member "result" doc = Some (Obs.Json.String "incomparable"));
  Alcotest.(check bool) "reason present" true (Obs.Json.member "reason" doc <> None);
  match Obs.Json.member "scenarios" doc with
  | Some (Obs.Json.List (_ :: _)) -> ()
  | _ -> Alcotest.fail "deltas expected even when incomparable"

let test_null_sink_identical_results () =
  let run_once ~traced =
    let net = loaded_net () in
    let events = workload () in
    let go () =
      Metrics.of_run
        (Engine.run ~seed:11 ~net ~events (Policy.Plmtf { alpha = 2 }))
    in
    if traced then
      with_memory_sink (fun _ -> go ())
    else go ()
  in
  let plain = run_once ~traced:false in
  let traced = run_once ~traced:true in
  Alcotest.(check bool)
    "summaries identical with and without tracing" true (plain = traced)

(* ------------------------------------------------------------------ *)
(* Watchdog: streaming detectors                                       *)

let test_cusum_step_change () =
  let open Obs.Detector.Cusum in
  let c = create () in
  (* A stable, slightly dithered baseline never fires. *)
  for i = 0 to 29 do
    let st = observe c (1.0 +. (0.01 *. float_of_int (i mod 3))) in
    Alcotest.(check bool) "quiet on stable signal" false st.firing
  done;
  (* A level shift fires within a handful of samples, direction Up. *)
  let fired = ref None in
  for i = 0 to 9 do
    let st = observe c 5.0 in
    if st.firing && !fired = None then fired := Some (i, st.direction)
  done;
  (match !fired with
  | None -> Alcotest.fail "step change never detected"
  | Some (i, dir) ->
      Alcotest.(check bool) "detected within 5 samples" true (i <= 5);
      Alcotest.(check bool) "shift direction is up" true (dir = Some Up));
  (* Determinism: a twin fed the same stream agrees on every status. *)
  let a = create () and b = create () in
  for i = 0 to 59 do
    let v = if i < 30 then 1.0 else 7.5 +. (0.1 *. float_of_int (i mod 4)) in
    Alcotest.(check bool) "twin statuses equal" true (observe a v = observe b v)
  done

let test_slope_and_rate () =
  let s = Obs.Detector.Slope.create ~window:5 in
  let last = ref None in
  for i = 0 to 3 do
    last := Obs.Detector.Slope.observe s (float_of_int i)
  done;
  Alcotest.(check bool) "no slope before the window fills" true (!last = None);
  (match Obs.Detector.Slope.observe s 4.0 with
  | Some sl -> Alcotest.(check (float 1e-9)) "unit ramp" 1.0 sl
  | None -> Alcotest.fail "slope expected once the window is full");
  for _ = 1 to 5 do
    last := Obs.Detector.Slope.observe s 4.0
  done;
  (match !last with
  | Some sl -> Alcotest.(check (float 1e-9)) "flat signal" 0.0 sl
  | None -> Alcotest.fail "slope expected");
  let r = Obs.Detector.Rate.create ~window:3 in
  ignore (Obs.Detector.Rate.observe r 1 : int);
  ignore (Obs.Detector.Rate.observe r 2 : int);
  Alcotest.(check int) "windowed sum" 3 (Obs.Detector.Rate.observe r 0);
  Alcotest.(check int) "window slides" 2 (Obs.Detector.Rate.observe r 0);
  Alcotest.(check int) "oldest aged out" 0 (Obs.Detector.Rate.observe r 0)

(* ------------------------------------------------------------------ *)
(* Watchdog: hysteretic health machine                                 *)

let test_health_full_transition_sequence () =
  let h = Obs.Health.create () in
  (* [n] ticks of one signal: no transition until the last tick, which
     must make [expect]. *)
  let hold what firing n expect =
    for i = 1 to n - 1 do
      if Obs.Health.observe h ~firing <> None then
        Alcotest.failf "%s: early transition at tick %d" what i
    done;
    Alcotest.(check bool) what true (Obs.Health.observe h ~firing = expect)
  in
  hold "warn after 3 sustained" true 3 (Some Obs.Health.Warn);
  hold "critical after 5 more" true 5 (Some Obs.Health.Critical);
  hold "recovering after 5 quiet" false 5 (Some Obs.Health.Recovering);
  hold "relapse straight to critical" true 1 (Some Obs.Health.Critical);
  hold "recovering again" false 5 (Some Obs.Health.Recovering);
  hold "ok after 5 more quiet" false 5 (Some Obs.Health.Ok)

let test_health_no_flapping () =
  (* A signal oscillating at the detector threshold: consecutive-tick
     requirements mean alternating fire/quiet never transitions. *)
  let h = Obs.Health.create () in
  for i = 0 to 99 do
    match Obs.Health.observe h ~firing:(i mod 2 = 0) with
    | Some s ->
        Alcotest.failf "flapped into %s at tick %d" (Obs.Health.state_name s) i
    | None -> ()
  done;
  Alcotest.(check bool) "still Ok" true (Obs.Health.state h = Obs.Health.Ok)

(* ------------------------------------------------------------------ *)
(* Watchdog: nu_watch over a synthetic observation stream              *)

let synthetic_obs ?(n = 60) ?(spike_at = 30) () =
  List.init n (fun tick ->
      let spiking = tick >= spike_at in
      {
        Obs.Watch.o_tick = tick;
        o_queue = (if spiking then 40 + (tick mod 3) else 2 + (tick mod 2));
        o_backlog = (if spiking then 2 * (tick - spike_at + 1) else 1);
        o_ects =
          [
            ( "tenant-a",
              if spiking then 1.5 +. (0.01 *. float_of_int (tick mod 5))
              else 0.05 );
            ("tenant-b", 0.05 +. (0.001 *. float_of_int (tick mod 7)));
          ];
        o_corrupt_d = (if tick = spike_at + 5 then 2 else 0);
        o_restarts_d = (if tick = spike_at + 6 then 1 else 0);
      })

let test_watch_deterministic_twins () =
  let stream = synthetic_obs () in
  let run () =
    let w = Obs.Watch.create Obs.Watch.default_config in
    List.iter (Obs.Watch.ingest w) stream;
    w
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "spike raises alerts" true (Obs.Watch.alert_total a > 0);
  Alcotest.(check bool) "criticals raised" true (Obs.Watch.critical_total a > 0);
  Alcotest.(check string) "digests bit-identical" (Obs.Watch.alert_digest a)
    (Obs.Watch.alert_digest b);
  Alcotest.(check bool) "alert sequences equal" true
    (Obs.Json.member "alerts" (Obs.Watch.alerts_json a)
    = Obs.Json.member "alerts" (Obs.Watch.alerts_json b));
  Alcotest.(check int) "severity counts cover every alert"
    (Obs.Watch.alert_total a)
    (List.fold_left (fun acc (_, n) -> acc + n) 0 (Obs.Watch.by_severity a));
  Alcotest.(check bool) "spiking tenant tracked" true
    (List.mem_assoc "tenant-a" (Obs.Watch.tenant_states a));
  (* The alert block renders and the health timeline is non-empty. *)
  match Obs.Json.member "alert_total" (Obs.Watch.report_json a) with
  | Some (Obs.Json.Int n) ->
      Alcotest.(check int) "report totals agree" (Obs.Watch.alert_total a) n
  | _ -> Alcotest.fail "report_json lacks alert_total"

(* Every detector of the fixed bank, pinned: over 100 ticks, each
   stream departs from a quiet baseline (queue 2, backlog 1, two tenants
   at 50 ms, no corrupt frames or restarts) in one signal only, and the
   detectors that name the alerts it raises are exactly the ones listed.
   The quiet baseline raises none. *)
let test_watch_detector_bank () =
  let stream ?(queue = fun _ -> 2) ?(backlog = fun _ -> 1)
      ?(ects = fun _ -> [ ("a", 0.05); ("b", 0.05) ]) ?(corrupt = fun _ -> 0)
      ?(restarts = fun _ -> 0) () =
    List.init 100 (fun tick ->
        {
          Obs.Watch.o_tick = tick;
          o_queue = queue tick;
          o_backlog = backlog tick;
          o_ects = ects tick;
          o_corrupt_d = corrupt tick;
          o_restarts_d = restarts tick;
        })
  in
  let at_50 before after tick = if tick < 50 then before else after in
  let once_at_50 tick = if tick = 50 then 1 else 0 in
  let cases =
    [
      ("quiet", stream (), []);
      ("queue step", stream ~queue:(at_50 2 40) (), [ "queue_cusum" ]);
      ( "backlog ramp",
        stream ~backlog:(fun tick -> 2 * tick) (),
        [ "backlog_slope" ] );
      ( "unfair tenants",
        stream ~ects:(fun _ -> [ ("a", 0.01); ("b", 10.0) ]) (),
        [ "jain_collapse" ] );
      ("one corrupt frame", stream ~corrupt:once_at_50 (), [ "wal_corrupt" ]);
      ( "one restart",
        stream ~restarts:once_at_50 (),
        [ "supervisor_restarts" ] );
      ( "ECT step",
        stream
          ~ects:
            (at_50 [ ("a", 0.05); ("b", 0.05) ] [ ("a", 1.5); ("b", 1.5) ])
          (),
        [ "ect_cusum"; "tenant_ect_cusum" ] );
    ]
  in
  List.iter
    (fun (name, obs, expected) ->
      let w = Obs.Watch.create Obs.Watch.default_config in
      List.iter (Obs.Watch.ingest w) obs;
      Alcotest.(check (list string)) name expected
        (List.map fst (Obs.Watch.by_detector w)))
    cases

(* A header written with a [config] object (the format before the bank
   was fixed) still loads: the object is ignored, not counted as
   damage. *)
let test_watch_journal_legacy_header () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "watch.jsonl" in
      let log = Obs.Store.open_writer path in
      List.iter (Obs.Store.append log)
        [
          {|{"nu_watch":1,"config":{"window":20,"jain_min":0.6}}|};
          {|{"tick":0,"queue":1,"backlog":0,"corrupt":0,"restarts":0,|}
          ^ {|"ects":[["a",0.5]]}|};
        ];
      Obs.Store.close log;
      match Obs.Watch.read_journal path with
      | Error m -> Alcotest.failf "read_journal: %s" m
      | Ok { Obs.Watch.j_obs; j_corrupt } ->
          Alcotest.(check bool) "no damage" true (j_corrupt = []);
          Alcotest.(check bool) "the observation" true
            (j_obs
            = [
                {
                  Obs.Watch.o_tick = 0;
                  o_queue = 1;
                  o_backlog = 0;
                  o_ects = [ ("a", 0.5) ];
                  o_corrupt_d = 0;
                  o_restarts_d = 0;
                };
              ]))

let test_watch_journal_roundtrip () =
  with_temp_dir (fun dir ->
      let stream = synthetic_obs () in
      let live = Obs.Watch.create { Obs.Watch.dir = Some dir } in
      List.iter (Obs.Watch.ingest live) stream;
      Obs.Watch.close live;
      match Obs.Watch.read_journal (Filename.concat dir "watch.jsonl") with
      | Error m -> Alcotest.failf "read_journal: %s" m
      | Ok { Obs.Watch.j_obs; j_corrupt } -> (
          Alcotest.(check bool) "no damage" true (j_corrupt = []);
          Alcotest.(check bool) "observations round-trip" true (j_obs = stream);
          (* Offline re-evaluation from the journal alone reproduces the
             live digest bit for bit. *)
          let offline = Obs.Watch.create Obs.Watch.default_config in
          List.iter (Obs.Watch.ingest offline) j_obs;
          Alcotest.(check string) "offline digest equals live"
            (Obs.Watch.alert_digest live)
            (Obs.Watch.alert_digest offline);
          Alcotest.(check int) "offline totals equal live"
            (Obs.Watch.alert_total live)
            (Obs.Watch.alert_total offline);
          (* And the journaled alert records hash to the same digest. *)
          match
            Obs.Watch.read_alerts_digest (Filename.concat dir "alerts.jsonl")
          with
          | Error m -> Alcotest.failf "read_alerts_digest: %s" m
          | Ok (digest, records, corrupt) ->
              Alcotest.(check string) "alerts.jsonl digest"
                (Obs.Watch.alert_digest live) digest;
              Alcotest.(check int) "alerts.jsonl record count"
                (Obs.Watch.alert_total live) records;
              Alcotest.(check bool) "alerts.jsonl undamaged" true
                (corrupt = [])))

let read_file path =
  let ic = open_in_bin path in
  let body = really_input_string ic (in_channel_length ic) in
  close_in ic;
  body

let test_watch_resume_matches_uninterrupted () =
  let stream = synthetic_obs () in
  let cut = 35 in
  with_temp_dir (fun dir_a ->
      with_temp_dir (fun dir_b ->
          let full = Obs.Watch.create { Obs.Watch.dir = Some dir_a } in
          List.iter (Obs.Watch.ingest full) stream;
          Obs.Watch.close full;
          (* Crash after [cut] ticks, then a fresh watcher resumes on the
             same directory: its first observation at tick [cut] > 0
             triggers the journal-replay path. *)
          let before = Obs.Watch.create { Obs.Watch.dir = Some dir_b } in
          List.iter (Obs.Watch.ingest before)
            (List.filter (fun o -> o.Obs.Watch.o_tick < cut) stream);
          Obs.Watch.close before;
          let resumed = Obs.Watch.create { Obs.Watch.dir = Some dir_b } in
          List.iter (Obs.Watch.ingest resumed)
            (List.filter (fun o -> o.Obs.Watch.o_tick >= cut) stream);
          Obs.Watch.close resumed;
          Alcotest.(check string) "alert digest equals uninterrupted"
            (Obs.Watch.alert_digest full)
            (Obs.Watch.alert_digest resumed);
          Alcotest.(check int) "alert totals equal"
            (Obs.Watch.alert_total full)
            (Obs.Watch.alert_total resumed);
          Alcotest.(check string) "alerts.jsonl byte-identical"
            (read_file (Filename.concat dir_a "alerts.jsonl"))
            (read_file (Filename.concat dir_b "alerts.jsonl"));
          Alcotest.(check string) "watch.jsonl byte-identical"
            (read_file (Filename.concat dir_a "watch.jsonl"))
            (read_file (Filename.concat dir_b "watch.jsonl"))))

let write_file path body =
  let oc = open_out_bin path in
  output_string oc body;
  close_out oc

(* A crash mid-append: the file loses its last [n] bytes. *)
let tear path n =
  let body = read_file path in
  write_file path (String.sub body 0 (String.length body - n))

(* Overwrite the bytes at the first occurrence of [needle] with
   [garbage] (same length or shorter) — damage in mid-file. *)
let scribble path ~needle garbage =
  let body = read_file path in
  let n = String.length needle in
  let rec find i =
    if i + n > String.length body then Alcotest.failf "%S not in %s" needle path
    else if String.sub body i n = needle then i
    else find (i + 1)
  in
  let at = find 0 in
  write_file path
    (String.sub body 0 at ^ garbage
    ^ String.sub body (at + String.length garbage)
        (String.length body - at - String.length garbage))

(* [torn] torn tails, and other damage reported iff [other]. *)
let check_damage what ~torn ~other (corrupt : Obs.Store.corrupt_frame list) =
  let count p = List.length (List.filter p corrupt) in
  Alcotest.(check int) (what ^ ": torn tails") torn
    (count (fun cf -> cf.Obs.Store.cf_torn));
  Alcotest.(check bool) (what ^ ": other damage reported") other
    (count (fun cf -> not cf.Obs.Store.cf_torn) > 0)

let test_watch_torn_tail_tolerated () =
  with_temp_dir (fun dir ->
      let stream = synthetic_obs ~n:21 ~spike_at:99 () in
      let w = Obs.Watch.create { Obs.Watch.dir = Some dir } in
      List.iter (Obs.Watch.ingest w) stream;
      Obs.Watch.close w;
      let path = Filename.concat dir "watch.jsonl" in
      (* A crash mid-append leaves a torn final record: tolerated and
         reported as a torn tail. *)
      tear path 5;
      (match Obs.Watch.read_journal path with
      | Error m -> Alcotest.failf "torn tail rejected: %s" m
      | Ok { Obs.Watch.j_obs; j_corrupt; _ } ->
          check_damage "torn" ~torn:1 ~other:false j_corrupt;
          Alcotest.(check int) "intact prefix read" 20 (List.length j_obs));
      (* Garbage in the middle costs the record it hits, and is
         reported as damage that is not a torn tail: skipped, never
         silent. *)
      scribble path ~needle:{|"tick":3,|} "garbage";
      match Obs.Watch.read_journal path with
      | Error m -> Alcotest.failf "mid-file garbage: %s" m
      | Ok { Obs.Watch.j_obs; j_corrupt; _ } ->
          check_damage "garbage" ~torn:1 ~other:true j_corrupt;
          Alcotest.(check (list int)) "every other record read"
            (List.filter (fun t -> t <> 3) (List.init 20 Fun.id))
            (List.map (fun o -> o.Obs.Watch.o_tick) j_obs))

let test_lifecycle_torn_tail_tolerated () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "lifecycle.jsonl" in
      let lc = Obs.Lifecycle.create ~path () in
      for i = 0 to 5 do
        Obs.Lifecycle.stamp lc ~id:i ~tenant:"t" ~tick:i
          ~t_s:(0.05 *. float_of_int i) Obs.Lifecycle.Arrived
      done;
      Obs.Lifecycle.close lc;
      (* Torn final record (crash mid-append). *)
      tear path 5;
      let ids r = List.map (fun e -> e.Obs.Lifecycle.id) r.Obs.Store.entries in
      (match Obs.Lifecycle.read_log path with
      | Error m -> Alcotest.failf "torn tail rejected: %s" m
      | Ok r ->
          check_damage "torn" ~torn:1 ~other:false r.Obs.Store.corrupt;
          Alcotest.(check (list int)) "intact prefix read" [ 0; 1; 2; 3; 4 ]
            (ids r));
      (* Mid-file garbage: skipped and reported, not silent. *)
      scribble path ~needle:{|"id":2,|} "not json";
      match Obs.Lifecycle.read_log path with
      | Error m -> Alcotest.failf "mid-file garbage: %s" m
      | Ok r ->
          check_damage "garbage" ~torn:1 ~other:true r.Obs.Store.corrupt;
          Alcotest.(check (list int)) "every other record read" [ 0; 1; 3; 4 ]
            (ids r))

let test_expo_watch_families_validate () =
  let w = Obs.Watch.create Obs.Watch.default_config in
  List.iter (Obs.Watch.ingest w) (synthetic_obs ());
  let doc = Obs.Expo.render ~watch:w () in
  (match Obs.Expo.validate doc with
  | Ok () -> ()
  | Error m -> Alcotest.failf "watch exposition rejected: %s" m);
  List.iter
    (fun sub ->
      Alcotest.(check bool) (sub ^ " present") true (Test_util.contains doc sub))
    [
      "# TYPE nu_alerts_total counter";
      "nu_alerts_total{severity=\"critical\"}";
      "# TYPE nu_alerts_detector_total counter";
      "nu_alerts_dropped_total";
      "nu_health_state{scope=\"global\"}";
      "nu_tenant_health_state{tenant=\"tenant-a\"}";
    ]

let prop_watch_digest_deterministic =
  (* Any spike position and stream length: twin watchers agree, and an
     offline journal re-evaluation reproduces the live digest. *)
  QCheck.Test.make ~name:"watch digest is a pure function of the obs stream"
    ~count:25
    QCheck.(pair (int_range 5 80) (int_range 1 80))
    (fun (n, spike_at) ->
      let stream = synthetic_obs ~n ~spike_at () in
      let run () =
        let w = Obs.Watch.create Obs.Watch.default_config in
        List.iter (Obs.Watch.ingest w) stream;
        Obs.Watch.alert_digest w
      in
      String.equal (run ()) (run ()))

(* ------------------------------------------------------------------ *)
(* Store: the one record-log reader                                    *)

type damage = Truncate of int | Flip of int * int | Splice of int * string

let damage_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun k -> Truncate k) nat;
        map2 (fun k bit -> Flip (k, bit)) nat (int_bound 7);
        map2 (fun k g -> Splice (k, g)) nat (string_size ~gen:char (1 -- 24));
      ])

let damage_print = function
  | Truncate k -> Printf.sprintf "truncate at %d" k
  | Flip (k, bit) -> Printf.sprintf "flip bit %d of byte %d" bit k
  | Splice (k, g) -> Printf.sprintf "splice %S at %d" g k

(* One damage to a log of random payloads: the reader returns every
   frame lying wholly outside the damaged span, in order, and nothing
   that was not written (a damaged frame may survive only when its
   bytes do, e.g. garbage spliced between 'N' and 'J' that ends in 'N');
   it reports the damage and marks a truncation as a torn tail. A
   truncation is moved off frame boundaries: cutting a log between two
   frames leaves a shorter, undamaged log. *)
let prop_store_reader_keeps_undamaged =
  QCheck.Test.make ~name:"store reader keeps every undamaged frame"
    ~count:300
    QCheck.(
      pair
        (make
           ~print:(Print.list Print.string)
           Gen.(list_size (1 -- 12) (string_size ~gen:char (0 -- 40))))
        (make ~print:damage_print damage_gen))
    (fun (payloads, damage) ->
      let path = Filename.temp_file "nu_store" ".log" in
      let w = Obs.Store.open_writer path in
      List.iter (Obs.Store.append w) payloads;
      Obs.Store.close w;
      let data = read_file path in
      (* (start, end, payload) of every frame after the 8-byte magic. *)
      let spans =
        List.rev
          (snd
             (List.fold_left
                (fun (at, acc) p ->
                  let e = at + 10 + String.length p in
                  (e, (at, e, p) :: acc))
                (8, []) payloads))
      in
      let len = String.length data in
      let keep p = List.filter_map (fun (s, e, x) -> if p s e then Some x else None) spans in
      let damaged, expected, torn =
        match damage with
        | Truncate k ->
            let k = 1 + (k mod (len - 1)) in
            let k = if List.exists (fun (s, _, _) -> s = k) spans then k + 1 else k in
            (String.sub data 0 k, keep (fun _ e -> e <= k), true)
        | Flip (k, bit) ->
            let k = k mod len in
            let b = Bytes.of_string data in
            Bytes.set b k (Char.chr (Char.code (Bytes.get b k) lxor (1 lsl bit)));
            (Bytes.to_string b, keep (fun s e -> k < s || k >= e), false)
        | Splice (k, g) ->
            let k = k mod (len + 1) in
            ( String.sub data 0 k ^ g ^ String.sub data k (len - k),
              keep (fun s e -> e <= k || s >= k),
              false )
      in
      write_file path damaged;
      let r = Obs.Store.read_report ~decode:Result.ok path in
      Sys.remove path;
      match r with
      | Error m -> QCheck.Test.fail_report m
      | Ok r ->
          let rec subseq xs ys =
            match (xs, ys) with
            | [], _ -> true
            | _ :: _, [] -> false
            | x :: xs', y :: ys' -> subseq (if x = y then xs' else xs) ys'
          in
          subseq expected r.Obs.Store.entries
          && subseq r.Obs.Store.entries payloads
          && r.Obs.Store.corrupt <> []
          && ((not torn)
             || List.exists (fun cf -> cf.Obs.Store.cf_torn) r.Obs.Store.corrupt))

let suite =
  [
    ("json round-trip", `Quick, test_json_roundtrip);
    ("json float precision", `Quick, test_json_float_precision);
    ("json non-finite", `Quick, test_json_nonfinite_is_null);
    ("json parse errors", `Quick, test_json_parse_errors);
    QCheck_alcotest.to_alcotest prop_json_print_parse_identity;
    ("json integral float type", `Quick, test_json_integral_float_keeps_type);
    ( "json control/unicode escapes",
      `Quick,
      test_json_control_and_unicode_escapes );
    ("fnv reference vectors", `Quick, test_fnv_reference_vectors);
    ("fnv allocation", `Quick, test_fnv_allocation);
    ("span LIFO nesting", `Quick, test_span_lifo_nesting);
    ("span non-LIFO raises", `Quick, test_span_non_lifo_raises);
    ("span exception safety", `Quick, test_span_exception_safety);
    ("span unwind on raise", `Quick, test_span_unwind_on_raise);
    ("disabled tracing no-op", `Quick, test_disabled_tracing_is_noop);
    ("histogram side stats", `Quick, test_histogram_exact_side_stats);
    ("histogram quantile bounds", `Quick, test_histogram_quantile_bounds);
    QCheck_alcotest.to_alcotest prop_histogram_matches_descriptive;
    QCheck_alcotest.to_alcotest prop_histogram_merge_associative;
    ("histogram json", `Quick, test_histogram_json);
    ("histogram registry gated", `Quick, test_histogram_registry_gated);
    ("profile sibling merge", `Quick, test_profile_tree_merges_siblings);
    ("profile truncation", `Quick, test_profile_tolerates_truncation);
    ("profile of real run", `Quick, test_profile_of_real_run);
    ("regress wall gate", `Quick, test_regress_pass_and_wall_regression);
    ("regress digest gate", `Quick, test_regress_digest_and_missing_scenario);
    ("regress incomparable", `Quick, test_regress_incomparable);
    ("regress delta json", `Quick, test_regress_delta_json);
    ( "counters late registration",
      `Quick,
      test_counters_late_registration_diff );
    ( "robustness counters snapshot/diff",
      `Quick,
      test_robustness_counters_snapshot_diff );
    QCheck_alcotest.to_alcotest prop_histogram_merge_mismatch_raises;
    QCheck_alcotest.to_alcotest prop_histogram_merge_equals_concat;
    ("lifecycle stamps + jsonl", `Quick, test_lifecycle_stamps_and_jsonl);
    ( "lifecycle entry json round-trip",
      `Quick,
      test_lifecycle_entry_json_roundtrip );
    ("fairness jain + fold", `Quick, test_fairness_jain_and_fold);
    ("cusum step change", `Quick, test_cusum_step_change);
    ("slope + rate detectors", `Quick, test_slope_and_rate);
    ("health transition sequence", `Quick, test_health_full_transition_sequence);
    ("health no flapping", `Quick, test_health_no_flapping);
    ("watch deterministic twins", `Quick, test_watch_deterministic_twins);
    ("watch detector bank pinned", `Quick, test_watch_detector_bank);
    ("watch journal round-trip", `Quick, test_watch_journal_roundtrip);
    ( "watch journal ignores an old config header",
      `Quick,
      test_watch_journal_legacy_header );
    ( "watch resume matches uninterrupted",
      `Quick,
      test_watch_resume_matches_uninterrupted );
    ("watch torn tail tolerated", `Quick, test_watch_torn_tail_tolerated);
    ( "lifecycle torn tail tolerated",
      `Quick,
      test_lifecycle_torn_tail_tolerated );
    ("expo watch families validate", `Quick, test_expo_watch_families_validate);
    QCheck_alcotest.to_alcotest prop_watch_digest_deterministic;
    ("expo metric names", `Quick, test_expo_metric_name);
    ("expo render validates", `Quick, test_expo_render_validates);
    ("chrome flow events", `Quick, test_chrome_flow_events);
    ("engine histograms", `Quick, test_engine_histograms);
    ("counters snapshot/diff", `Quick, test_counters_snapshot_diff);
    ("counters alist/json", `Quick, test_counters_alist_json);
    ("counters pipeline work", `Quick, test_counters_count_pipeline_work);
    ("trace covers pipeline", `Quick, test_trace_covers_pipeline);
    ("chrome export parses", `Quick, test_chrome_export_parses);
    ("null sink identical results", `Quick, test_null_sink_identical_results);
    QCheck_alcotest.to_alcotest prop_store_reader_keeps_undamaged;
  ]
