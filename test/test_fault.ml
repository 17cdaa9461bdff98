(* nu_fault: fault schedules, retry policy, recovery log, invariant
   checker, the injector, and the fault-aware engine loop. *)

let of_spec = Test_util.of_spec

let flow = Test_util.flow

let loaded_net = Test_util.loaded_net

(* A deterministic workload of [n] events of [m] small flows each. *)
let workload ?(n = 6) ?(m = 5) () =
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

(* A fabric (switch-to-switch) edge crossed by some placed flow. *)
let fabric_edge_of_some_flow net =
  let topo = Net_state.topology net in
  let found = ref None in
  Net_state.iter_flows net (fun p ->
      if !found = None then
        List.iter
          (fun (e : Graph.edge) ->
            if
              !found = None
              && (not (Topology.is_host topo e.Graph.src))
              && not (Topology.is_host topo e.Graph.dst)
            then found := Some e.Graph.id)
          (Path.edges p.Net_state.path));
  match !found with Some e -> e | None -> Alcotest.fail "no fabric edge"

(* ------------------------------------------------------------------ *)
(* Fault_model                                                         *)

let test_schedule_deterministic () =
  let topo = Test_util.topo4 () in
  let a = Fault_model.generate ~seed:5 topo in
  let b = Fault_model.generate ~seed:5 topo in
  Alcotest.(check bool) "same seed same schedule" true (a = b);
  let c = Fault_model.generate ~seed:6 topo in
  Alcotest.(check bool) "different seed differs" true (a <> c);
  Alcotest.(check bool) "non-empty" true (List.length a > 0)

let test_schedule_sorted_and_paired () =
  let topo = Test_util.topo4 () in
  let s = Fault_model.generate ~seed:11 topo in
  let rec sorted = function
    | (a : Fault_model.fault) :: (b :: _ as rest) ->
        a.Fault_model.at_s <= b.Fault_model.at_s && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted by at_s" true (sorted s);
  let count p = List.length (List.filter p s) in
  Alcotest.(check int) "every link down has its repair"
    (count (fun f ->
         match f.Fault_model.action with Fault_model.Link_down _ -> true | _ -> false))
    (count (fun f ->
         match f.Fault_model.action with Fault_model.Link_up _ -> true | _ -> false));
  Alcotest.(check int) "every switch down has its repair"
    (count (fun f ->
         match f.Fault_model.action with
         | Fault_model.Switch_down _ -> true
         | _ -> false))
    (count (fun f ->
         match f.Fault_model.action with Fault_model.Switch_up _ -> true | _ -> false));
  Alcotest.(check int) "every degradation has its restore"
    (count (fun f ->
         match f.Fault_model.action with Fault_model.Degrade _ -> true | _ -> false))
    (count (fun f ->
         match f.Fault_model.action with Fault_model.Restore _ -> true | _ -> false))

let test_retry_policy () =
  let p = Retry_policy.default in
  let p5 = { Retry_policy.max_attempts = 5 } in
  let backoff attempt =
    match Retry_policy.decide p5 ~attempt with
    | `Retry_after b -> b
    | `Degrade -> Alcotest.fail "attempts below the budget retry"
  in
  Alcotest.(check (float 1e-12)) "first backoff 50 ms" 0.05 (backoff 1);
  Alcotest.(check (float 1e-12)) "doubles" 0.1 (backoff 2);
  Alcotest.(check (float 1e-12)) "doubles again" 0.2 (backoff 3);
  (match Retry_policy.decide p ~attempt:2 with
  | `Retry_after b -> Alcotest.(check (float 1e-12)) "retry backoff" 0.1 b
  | `Degrade -> Alcotest.fail "attempt 2 of 3 must retry");
  (match Retry_policy.decide p ~attempt:3 with
  | `Degrade -> ()
  | `Retry_after _ -> Alcotest.fail "attempt 3 of 3 must degrade");
  Alcotest.(check bool) "invalid rejected" true
    (Result.is_error (Retry_policy.validate { Retry_policy.max_attempts = 0 }))

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)

let test_recovery_digest_and_stats () =
  let r = Recovery.create () in
  Alcotest.(check string) "empty log is the FNV basis" "cbf29ce484222325"
    (Recovery.digest r);
  let before = Obs.Counters.snapshot () in
  Recovery.record r (Recovery.Fault_applied { at_s = 1.0; tag = 1; subject = 3 });
  Recovery.record r (Recovery.Migration_aborted { event_id = 7; at_s = 1.0; attempt = 1 });
  Recovery.record r (Recovery.Retry_scheduled { event_id = 7; ready_s = 1.05; attempt = 1 });
  Recovery.record r (Recovery.Event_degraded { event_id = 7; at_s = 2.0 });
  Recovery.record r (Recovery.Flow_evacuated { flow_id = 9; at_s = 1.0; dropped = true });
  Recovery.record r (Recovery.Invariant_violated { at_s = 2.0; name = "blackhole" });
  let d = Obs.Counters.diff ~before ~after:(Obs.Counters.snapshot ()) in
  Alcotest.(check int) "faults counter" 1 (Obs.Counters.value d Obs.Counters.Faults_injected);
  Alcotest.(check int) "aborts counter" 1 (Obs.Counters.value d Obs.Counters.Migrations_aborted);
  Alcotest.(check int) "retries counter" 1 (Obs.Counters.value d Obs.Counters.Retries);
  Alcotest.(check int) "degraded counter" 1 (Obs.Counters.value d Obs.Counters.Events_degraded);
  let s = Recovery.stats r in
  Alcotest.(check int) "stats faults" 1 s.Recovery.faults_applied;
  Alcotest.(check int) "stats aborts" 1 s.Recovery.aborts;
  Alcotest.(check int) "stats retries" 1 s.Recovery.retries;
  Alcotest.(check int) "stats degraded" 1 s.Recovery.degraded;
  Alcotest.(check int) "stats dropped" 1 s.Recovery.dropped;
  Alcotest.(check int) "stats violations" 1 s.Recovery.violations;
  (* Digest is order-sensitive: same decisions, different order. *)
  let r2 = Recovery.create () in
  Recovery.record r2 (Recovery.Migration_aborted { event_id = 7; at_s = 1.0; attempt = 1 });
  Recovery.record r2 (Recovery.Fault_applied { at_s = 1.0; tag = 1; subject = 3 });
  Alcotest.(check bool) "order-sensitive digest" true
    (Recovery.digest r <> Recovery.digest r2)

(* ------------------------------------------------------------------ *)
(* Invariant                                                           *)

let test_invariant_detects_blackhole () =
  let net = loaded_net () in
  Alcotest.(check int) "clean state" 0 (List.length (Invariant.check net));
  let e = fabric_edge_of_some_flow net in
  (* Disable without evacuating: a synthetic blackhole. *)
  Net_state.disable_edge net e;
  let vs = Invariant.check net in
  Alcotest.(check bool) "blackhole found" true
    (List.exists (fun (v : Invariant.violation) -> v.Invariant.name = "blackhole") vs)

let test_invariant_detects_capacity () =
  let net = loaded_net () in
  let e = fabric_edge_of_some_flow net in
  let cap = (Graph.edge (Net_state.graph net) e).Graph.capacity in
  (* Degrade below current usage without shedding: residual goes negative. *)
  Net_state.degrade_edge net e ~lost_mbps:cap;
  let vs = Invariant.check net in
  Alcotest.(check bool) "capacity violation found" true
    (List.exists (fun (v : Invariant.violation) -> v.Invariant.name = "capacity") vs);
  Net_state.restore_edge_capacity net e

(* ------------------------------------------------------------------ *)
(* Injector                                                            *)

let test_injector_link_down_evacuates () =
  let net = loaded_net () in
  let e = fabric_edge_of_some_flow net in
  let inj =
    Injector.create
      [ { Fault_model.at_s = 0.0; action = Fault_model.Link_down e } ]
  in
  let n = Injector.apply_due inj net ~now:0.0 in
  Alcotest.(check int) "one fault applied" 1 n;
  Alcotest.(check bool) "edge disabled" true (Net_state.edge_disabled net e);
  Alcotest.(check int) "no violations after evacuation" 0
    (List.length (Injector.check_now inj net ~now:0.0));
  let s = Recovery.stats (Injector.recovery inj) in
  Alcotest.(check bool) "evacuations recorded" true
    (s.Recovery.evacuated + s.Recovery.dropped > 0);
  Alcotest.(check bool) "faults not yet due stay pending" true
    (Injector.next_due_s inj = None)

let test_injector_switch_down_then_up () =
  let net = loaded_net () in
  let topo = Net_state.topology net in
  let v =
    let sw = ref (-1) in
    let nodes = Graph.node_count (Net_state.graph net) in
    for node = 0 to nodes - 1 do
      if !sw < 0 && not (Topology.is_host topo node) then sw := node
    done;
    !sw
  in
  let inj =
    Injector.create
      [
        { Fault_model.at_s = 0.0; action = Fault_model.Switch_down v };
        { Fault_model.at_s = 5.0; action = Fault_model.Switch_up v };
      ]
  in
  ignore (Injector.apply_due inj net ~now:0.0);
  let g = Net_state.graph net in
  List.iter
    (fun (e : Graph.edge) ->
      Alcotest.(check bool) "incident edge disabled" true
        (Net_state.edge_disabled net e.Graph.id))
    (Graph.out_edges g v);
  Alcotest.(check int) "consistent after switch loss" 0
    (List.length (Injector.check_now inj net ~now:0.0));
  ignore (Injector.apply_due inj net ~now:5.0);
  List.iter
    (fun (e : Graph.edge) ->
      Alcotest.(check bool) "incident edge re-enabled" false
        (Net_state.edge_disabled net e.Graph.id))
    (Graph.out_edges g v)

let test_injector_degrade_sheds () =
  let net = loaded_net () in
  let e = fabric_edge_of_some_flow net in
  let cap = (Graph.edge (Net_state.graph net) e).Graph.capacity in
  let inj =
    Injector.create
      [
        {
          Fault_model.at_s = 0.0;
          action = Fault_model.Degrade { edge = e; lost_mbps = cap *. 0.9 };
        };
      ]
  in
  ignore (Injector.apply_due inj net ~now:0.0);
  Alcotest.(check bool) "residual non-negative after shedding" true
    (Net_state.residual net e >= -1e-6);
  Alcotest.(check int) "consistent after degradation" 0
    (List.length (Injector.check_now inj net ~now:0.0))

(* ------------------------------------------------------------------ *)
(* Fault-aware engine                                                  *)

(* A stable fingerprint of everything a run decided. *)
let run_fingerprint (r : Engine.run_result) =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "rounds=%d units=%d " r.Engine.rounds r.Engine.total_plan_units);
  Array.iter
    (fun (er : Engine.event_result) ->
      Buffer.add_string b
        (Printf.sprintf "(%d %.9f %.9f %.3f %d %b)" er.Engine.event_id
           er.Engine.start_s er.Engine.completion_s er.Engine.cost_mbit
           er.Engine.failed_items er.Engine.co_scheduled))
    r.Engine.events;
  List.iter
    (fun (ri : Engine.round_info) ->
      Buffer.add_string b
        (Printf.sprintf "[%.9f %s %d]" ri.Engine.round_start_s
           (String.concat "," (List.map string_of_int ri.Engine.executed))
           ri.Engine.round_units))
    r.Engine.rounds_log;
  Buffer.contents b

let test_engine_empty_schedule_identical () =
  let events = workload () in
  let base =
    Engine.run ~seed:3 ~net:(loaded_net ()) ~events (Policy.Plmtf { alpha = 2 })
  in
  let inj = Injector.create [] in
  let faulted =
    Engine.run ~seed:3 ~injector:inj ~net:(loaded_net ()) ~events
      (Policy.Plmtf { alpha = 2 })
  in
  Alcotest.(check string) "bit-identical decisions"
    (run_fingerprint base) (run_fingerprint faulted);
  Alcotest.(check string) "recovery log untouched" "cbf29ce484222325"
    (Recovery.digest (Injector.recovery inj))

let chaos_run ?(retry = Retry_policy.default) ~fault_seed policy =
  let net = loaded_net () in
  (* Size the fault horizon to the run itself: draw the schedule inside
     the fault-free makespan so faults actually land mid-run. *)
  let baseline =
    Engine.run ~seed:3 ~net:(Net_state.copy net) ~events:(workload ~n:8 ())
      policy
  in
  let horizon = baseline.Engine.makespan_s *. 0.8 in
  let schedule =
    Fault_model.generate
      ~config:
        {
          Fault_model.default_config with
          Fault_model.rate_per_s = 6.0 /. horizon;
          horizon_s = horizon;
          repair_s = horizon /. 4.0;
        }
      ~seed:fault_seed (Net_state.topology net)
  in
  let inj = Injector.create ~retry schedule in
  let run =
    Engine.run ~seed:3 ~injector:inj ~net ~events:(workload ~n:8 ()) policy
  in
  (run, inj)

let test_engine_chaos_deterministic () =
  let run_a, inj_a = chaos_run ~fault_seed:21 (Policy.Plmtf { alpha = 2 }) in
  let run_b, inj_b = chaos_run ~fault_seed:21 (Policy.Plmtf { alpha = 2 }) in
  Alcotest.(check string) "same recovery digest"
    (Recovery.digest (Injector.recovery inj_a))
    (Recovery.digest (Injector.recovery inj_b));
  Alcotest.(check string) "same run decisions" (run_fingerprint run_a)
    (run_fingerprint run_b)

let test_engine_chaos_robust () =
  List.iter
    (fun policy ->
      List.iter
        (fun fault_seed ->
          let run, inj = chaos_run ~fault_seed policy in
          Alcotest.(check int) "zero invariant violations" 0
            (Injector.violations inj);
          (* Degraded or retried, every event still completes and is
             reported — nothing is silently dropped. *)
          Alcotest.(check int) "all events reported" 8
            (Array.length run.Engine.events);
          let s = Recovery.stats (Injector.recovery inj) in
          Alcotest.(check bool) "faults actually applied" true
            (s.Recovery.faults_applied > 0))
        [ 21; 22; 23 ])
    [ Policy.Fifo; Policy.Plmtf { alpha = 2 } ]

let test_engine_abort_then_retry () =
  let net = loaded_net () in
  let e = fabric_edge_of_some_flow net in
  (* One event; the fault lands just after the round begins, so the
     in-flight round must abort. With two attempts allowed, the retry
     then completes the event. *)
  let inj =
    Injector.create
      ~retry:{ Retry_policy.max_attempts = 2 }
      [ { Fault_model.at_s = 1e-6; action = Fault_model.Link_down e } ]
  in
  let run =
    Engine.run ~seed:3 ~injector:inj ~net ~events:(workload ~n:1 ()) Policy.Fifo
  in
  let s = Recovery.stats (Injector.recovery inj) in
  Alcotest.(check int) "one abort" 1 s.Recovery.aborts;
  Alcotest.(check int) "one retry" 1 s.Recovery.retries;
  Alcotest.(check int) "no degradation" 0 s.Recovery.degraded;
  Alcotest.(check int) "event completed" 1 (Array.length run.Engine.events);
  Alcotest.(check int) "no violations" 0 (Injector.violations inj);
  Alcotest.(check bool) "completion after backoff" true
    (run.Engine.events.(0).Engine.completion_s > 0.05)

let test_engine_abort_then_degrade () =
  let net = loaded_net () in
  let e = fabric_edge_of_some_flow net in
  let inj =
    Injector.create
      ~retry:{ Retry_policy.max_attempts = 1 }
      [ { Fault_model.at_s = 1e-6; action = Fault_model.Link_down e } ]
  in
  let run =
    Engine.run ~seed:3 ~injector:inj ~net ~events:(workload ~n:1 ()) Policy.Fifo
  in
  let s = Recovery.stats (Injector.recovery inj) in
  Alcotest.(check int) "one abort" 1 s.Recovery.aborts;
  Alcotest.(check int) "no retry left" 0 s.Recovery.retries;
  Alcotest.(check int) "degraded instead" 1 s.Recovery.degraded;
  Alcotest.(check int) "event still reported" 1 (Array.length run.Engine.events);
  Alcotest.(check int) "no violations" 0 (Injector.violations inj)

(* Flow-level runs are FIFO over one-flow events, so they take faults
   as every stepper round does: the first is due before the first flow
   is planned, the second lands mid-flow and aborts that flow's round
   for a retry. *)
let test_engine_flow_level_faults () =
  let net = loaded_net () in
  let e = fabric_edge_of_some_flow net in
  let inj =
    Injector.create
      [
        { Fault_model.at_s = 0.0; action = Fault_model.Link_down e };
        { Fault_model.at_s = 1e-6; action = Fault_model.Link_up e };
      ]
  in
  let run =
    Engine.run ~seed:3 ~injector:inj ~net ~events:(workload ~n:2 ())
      (Policy.Flow_level Policy.Round_robin)
  in
  let s = Recovery.stats (Injector.recovery inj) in
  Alcotest.(check int) "both faults applied" 2 s.Recovery.faults_applied;
  Alcotest.(check int) "mid-item fault aborts" 1 s.Recovery.aborts;
  Alcotest.(check int) "aborted flow retried" 1 s.Recovery.retries;
  Alcotest.(check int) "no violations" 0 (Injector.violations inj);
  Alcotest.(check int) "both events reported" 2 (Array.length run.Engine.events)

(* ------------------------------------------------------------------ *)
(* Store_fault: the storage-fault injector                             *)

let plan_str p = Obs.Json.to_string (Store_fault.to_json (Store_fault.create p))

let test_store_fault_plan_deterministic () =
  List.iter
    (fun seed ->
      let a = Store_fault.generate ~seed () in
      let b = Store_fault.generate ~seed () in
      Alcotest.(check string)
        (Printf.sprintf "seed %d reproduces" seed)
        (plan_str a) (plan_str b);
      (* Sorted by operation index. *)
      ignore
        (List.fold_left
           (fun prev f ->
             Alcotest.(check bool) "sorted by at_op" true
               (f.Store_fault.at_op >= prev);
             f.Store_fault.at_op)
           0 a);
      (* Every acknowledged-but-lost fsync is followed by a kill, so the
         loss actually materialises during the run. *)
      List.iter
        (fun f ->
          if f.Store_fault.kind = Store_fault.Fsync_loss then
            Alcotest.(check bool) "fsync loss paired with a later kill" true
              (List.exists
                 (fun g ->
                   g.Store_fault.kind = Store_fault.Kill
                   && g.Store_fault.at_op > f.Store_fault.at_op)
                 a))
        a)
    [ 1; 2; 3; 4; 5; 6; 7; 8 ];
  Alcotest.(check bool) "different seeds differ" false
    (plan_str (Store_fault.generate ~seed:1 ())
    = plan_str (Store_fault.generate ~seed:2 ()))

let test_store_fault_verdicts () =
  (* ENOSPC: the append fails without dying. *)
  let f =
    Store_fault.create
      [ { Store_fault.at_op = 1; kind = Store_fault.Enospc; knob = 0.0 } ]
  in
  Store_fault.register f ~path:"x" ~size:0;
  (match Store_fault.on_append f ~path:"x" "0123456789" with
  | exception Store_fault.Store_error m ->
      Alcotest.(check bool) "names enospc" true
        (String.lowercase_ascii m |> fun s ->
         let rec go i =
           i + 6 <= String.length s && (String.sub s i 6 = "enospc" || go (i + 1))
         in
         go 0)
  | _ -> Alcotest.fail "expected Store_error");
  Alcotest.(check int) "fired once" 1 (Store_fault.fired_count f);
  (* Torn write: the verdict is a strict prefix the caller must persist
     before crashing. *)
  let f =
    Store_fault.create
      [ { Store_fault.at_op = 1; kind = Store_fault.Torn_write; knob = 0.5 } ]
  in
  Store_fault.register f ~path:"x" ~size:0;
  match Store_fault.on_append f ~path:"x" "0123456789" with
  | Store_fault.Torn prefix ->
      Alcotest.(check bool) "shorter than the buffer" true
        (String.length prefix < 10);
      Alcotest.(check string) "a prefix of the buffer" prefix
        (String.sub "0123456789" 0 (String.length prefix));
      (* The paired crash raises. *)
      (try Store_fault.crash f ~reason:"torn write" with
      | Store_fault.Crash _ -> ())
  | _ -> Alcotest.fail "expected Torn verdict"

(* Delayed fsync loss, end to end on a real file: acknowledged sync,
   bytes on disk, crash — and the file is rolled back to its last
   durable length. *)
let test_store_fault_fsync_loss_truncates () =
  let path = Filename.temp_file "nu_store_fault" ".bin" in
  let f =
    Store_fault.create
      [ { Store_fault.at_op = 2; kind = Store_fault.Fsync_loss; knob = 0.0 } ]
  in
  Store_fault.register f ~path ~size:0;
  (match Store_fault.on_append f ~path "hello world" with
  | Store_fault.Write bytes ->
      let oc = open_out_bin path in
      output_string oc bytes;
      close_out oc;
      Store_fault.note_written f ~path (String.length bytes)
  | Store_fault.Torn _ -> Alcotest.fail "no torn write scheduled");
  (* Op 2: the sync is acknowledged but lost. *)
  Store_fault.on_sync f ~path;
  Alcotest.(check int) "loss fired" 1 (Store_fault.fired_count f);
  (try Store_fault.crash f ~reason:"test kill" with Store_fault.Crash _ -> ());
  let ic = open_in_bin path in
  let survived = in_channel_length ic in
  close_in ic;
  Alcotest.(check int) "bytes since the durable mark vanish" 0 survived;
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Incremental invariant checking                                      *)

let full_sweeps () = Obs.Counters.get Obs.Counters.Invariant_checks

let names vs = List.map (fun (v : Invariant.violation) -> v.Invariant.name) vs

(* A flow write inside a transaction reaches the committed log only if
   the outermost transaction commits; writes outside one land at once. *)
let test_change_log_commit_only () =
  let net = Net_state.create (Test_util.topo4 ()) in
  let place id src dst =
    let r = flow ~id ~demand:20.0 src dst in
    match Routing.select net r with
    | Some p -> (
        match Net_state.place net r p with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "place")
    | None -> Alcotest.fail "no path"
  in
  place 1 0 15;
  let cursor = Net_state.open_cursor net ~bounded:true in
  let buf = ref [||] in
  let drain_from c =
    match Net_state.drain_changed net c ~into:buf with
    | -1 -> Alcotest.fail "cursor cannot vouch"
    | n -> Array.to_list (Array.sub !buf 0 n)
  in
  let drain () = drain_from cursor in
  Net_state.begin_txn net;
  place 2 1 14;
  ignore (Net_state.remove net 1);
  Net_state.rollback net;
  Alcotest.(check (list int)) "rolled-back txn adds nothing" [] (drain ());
  Net_state.begin_txn net;
  place 3 2 13;
  Net_state.begin_txn net;
  place 4 3 12;
  Net_state.rollback net;
  place 5 4 11;
  (* Mid-transaction drains see only committed writes. *)
  Alcotest.(check (list int)) "open txn not yet logged" [] (drain ());
  Net_state.commit net;
  Alcotest.(check (list int)) "committed txn logged" [ 3; 5 ] (drain ());
  ignore (Net_state.remove net 3);
  place 6 5 10;
  ignore (Net_state.remove net 6);
  Alcotest.(check (list int)) "writes outside a txn logged" [ 3; 6 ] (drain ());
  (* A second reader's cursor leaves the first's span whole. *)
  let second = Net_state.open_cursor net ~bounded:true in
  place 7 6 9;
  Alcotest.(check (list int)) "first reader sees the write" [ 7 ] (drain ());
  ignore (Net_state.remove net 7);
  Alcotest.(check (list int)) "second reader sees both" [ 7 ]
    (drain_from second);
  Alcotest.(check (list int)) "first reader sees the rest" [ 7 ] (drain ());
  Net_state.close_cursor net cursor;
  Alcotest.(check int) "a closed cursor cannot vouch" (-1)
    (Net_state.drain_changed net cursor ~into:buf)

(* A bounded cursor that falls more than the flow count + 1024 flow
   changes behind is dropped: its drain cannot vouch, so an injector's
   next check is the full sweep, on a fresh cursor. With no cursor left
   the log records nothing. *)
let test_lagging_cursor_dropped () =
  let net = loaded_net () in
  let churn () =
    for _ = 1 to 3 * (Net_state.flow_count net + 1024) do
      match Net_state.remove net 1000 with
      | Ok p -> (
          match Net_state.place net p.Net_state.record p.Net_state.path with
          | Ok () -> ()
          | Error _ -> Alcotest.fail "re-place")
      | Error `Not_found -> Alcotest.fail "flow 1000 missing"
    done
  in
  let cursor = Net_state.open_cursor net ~bounded:true in
  churn ();
  Alcotest.(check int) "a lagging cursor cannot vouch" (-1)
    (Net_state.drain_changed net cursor ~into:(ref [||]));
  let freed () = Net_state.invariants_ok net = Ok () in
  Alcotest.(check bool) "no cursor: nothing held" true (freed ());
  ignore (Net_state.remove net 1001);
  Alcotest.(check bool) "no cursor: a flow write records nothing" true
    (freed ());
  let inj = Injector.create [] in
  let sweeps f =
    let before = full_sweeps () in
    f ();
    full_sweeps () - before
  in
  let check () = ignore (Injector.check_now inj net ~now:0.0) in
  Alcotest.(check int) "first check is full" 1 (sweeps check);
  Alcotest.(check int) "second is incremental" 0 (sweeps check);
  churn ();
  Alcotest.(check int) "a dropped cursor forces a full sweep" 1 (sweeps check);
  Alcotest.(check int) "then incremental on a fresh cursor" 0 (sweeps check)

(* The evacuation feed: the flows on a node's incident edges, each once
   and ascending, whatever order the on-edge sets hold them in, read into
   a buffer that starts too short. *)
let test_edge_flow_ids () =
  let net = loaded_net () in
  let g = Net_state.graph net in
  let buf = ref [| 0 |] in
  for v = 0 to Graph.node_count g - 1 do
    let edges =
      List.map
        (fun (e : Graph.edge) -> e.Graph.id)
        (Graph.out_edges g v @ Graph.in_edges g v)
    in
    let expected =
      List.sort_uniq compare
        (List.concat_map
           (fun e ->
             List.map
               (fun (p : Net_state.placed) -> p.Net_state.record.Flow_record.id)
               (Net_state.flows_on_edge net e))
           edges)
    in
    let n = Net_state.edge_flow_ids net edges ~into:buf in
    Alcotest.(check (list int))
      (Printf.sprintf "node %d" v)
      expected
      (Array.to_list (Array.sub !buf 0 n))
  done

(* Minor words of one incremental check on a loaded k=4 net, after a
   few committed writes. The net, its flows and the check are fixed, so
   the count repeats exactly. *)
let incremental_check_words () =
  let net = Net_state.create (Test_util.topo4 ()) in
  let rng = Prng.create 3 in
  let next = ref 1 in
  let place () =
    let src = Prng.int rng 16 in
    let dst = (src + 1 + Prng.int rng 15) mod 16 in
    let r = flow ~id:!next ~demand:4.0 src dst in
    incr next;
    match Routing.select_random rng net r with
    | Some p -> ignore (Net_state.place net r p : (unit, _) result)
    | None -> ()
  in
  for _ = 1 to 200 do
    place ()
  done;
  let inj = Injector.create [] in
  let check () = Injector.check_now inj net ~now:0.0 in
  let write () =
    ignore (Net_state.remove net (1 + Prng.int rng (!next - 1)));
    place ()
  in
  (* The first check is full and opens the cursor; the next, after a
     write, sizes the scratch. *)
  ignore (check ());
  write ();
  ignore (check ());
  Net_state.begin_txn net;
  write ();
  write ();
  Net_state.commit net;
  write ();
  let before = full_sweeps () in
  let w0 = Gc.minor_words () in
  let vs = check () in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "the check was incremental" 0 (full_sweeps () - before);
  Alcotest.(check int) "no violation" 0 (List.length vs);
  (Net_state.flow_count net, words)

let test_incremental_check_words () =
  let flows, words = incremental_check_words () in
  Alcotest.(check bool) "a loaded net" true (flows > 150);
  (* This check measures 4 words here (the violation accumulator and
     the sweep's error cell); before the sweeps wrote to scratch the net
     keeps, read a running hop count and took top-level callbacks, it
     measured 1285. *)
  if words > 64.0 then
    Alcotest.failf "%.0f minor words per incremental check, bound 64" words

(* Each injector check is one [fault.invariant_check] span whose end
   names its mode and how many flows it walked. *)
let test_check_span () =
  let net = loaded_net () in
  let inj = Injector.create [] in
  let sink, events = Obs.Trace.memory () in
  Obs.Trace.install sink;
  Fun.protect ~finally:Obs.Trace.uninstall (fun () ->
      ignore (Injector.check_now inj net ~now:0.0);
      ignore (Net_state.remove net 1000);
      ignore (Injector.check_now inj net ~now:0.0));
  let ends =
    List.filter_map
      (fun (e : Obs.Trace.event) ->
        if e.Obs.Trace.phase = Obs.Trace.End && e.name = "fault.invariant_check"
        then Some (List.assoc "mode" e.attrs, List.assoc "flows" e.attrs)
        else None)
      (events ())
  in
  Alcotest.(check bool) "full over every flow, then incremental over one" true
    (ends
    = [
        (Obs.Trace.Str "full", Obs.Trace.Int (Net_state.flow_count net + 1));
        (Obs.Trace.Str "incremental", Obs.Trace.Int 1);
      ])

(* The injector's first check of a net is the full oracle sweep (after
   create and after thaw alike), later ones are incremental, and every
   16th is full again. *)
let test_thawed_injector_first_check_full () =
  let net = loaded_net () in
  let inj = Injector.create [] in
  let sweeps f =
    let before = full_sweeps () in
    f ();
    full_sweeps () - before
  in
  let check inj = ignore (Injector.check_now inj net ~now:0.0) in
  Alcotest.(check int) "first check after create is full" 1
    (sweeps (fun () -> check inj));
  Alcotest.(check int) "next 14 checks are incremental" 0
    (sweeps (fun () ->
         for _ = 2 to 15 do
           check inj
         done));
  Alcotest.(check int) "16th check is full" 1 (sweeps (fun () -> check inj));
  let thawed = Injector.thaw (Injector.freeze inj) in
  Alcotest.(check int) "first check after thaw is full" 1
    (sweeps (fun () -> check thawed));
  Alcotest.(check int) "then incremental" 0 (sweeps (fun () -> check thawed));
  (* The thawed injector reads through a cursor of its own, so the
     original's span stays whole. *)
  Alcotest.(check int) "a second reader leaves the first incremental" 0
    (sweeps (fun () -> check inj));
  let other = loaded_net () in
  Alcotest.(check int) "another net is swept fully" 1
    (sweeps (fun () -> ignore (Injector.check_now inj other ~now:0.0)))

(* Bit for bit: the flows (id and hops), residuals, ledger, utilisation
   pair, flags, versions, epoch and every edge's rows in order. *)
let mirror_identical src mirror =
  let bits = Int64.bits_of_float in
  let same a b =
    Array.length a = Array.length b && Array.for_all2 (fun x y -> bits x = bits y) a b
  in
  let fs = Net_state.freeze src and fm = Net_state.freeze mirror in
  let flows fz =
    List.map
      (fun p -> (p.Net_state.record.Flow_record.id, Path.hop_ids p.Net_state.path))
      fz.Net_state.fz_flows
  in
  let rows net e =
    let n = Net_state.edge_flow_count net e in
    let ids = Array.make n 0 and dem = Array.make n 0.0 and size = Array.make n 0.0 in
    ignore (Net_state.edge_flows_blit net e ~ids ~dem ~size);
    (ids, Array.map bits dem, Array.map bits size)
  in
  flows fs = flows fm
  && same fs.fz_residual fm.fz_residual
  && same fs.fz_degraded fm.fz_degraded
  && bits fs.fz_util_sum = bits fm.fz_util_sum
  && bits fs.fz_util_comp = bits fm.fz_util_comp
  && fs.fz_disabled = fm.fz_disabled
  && fs.fz_versions = fm.fz_versions
  && fs.fz_disabled_epoch = fm.fz_disabled_epoch
  && List.for_all
       (fun e -> rows src e = rows mirror e)
       (List.init (Graph.edge_count (Net_state.graph src)) Fun.id)

(* Differential: after every random operation — including ones that
   leave blackholes (disable without evacuation) and negative residuals
   (degrade without shedding) — each of two injectors reading one net
   reports the same violation names, in the same order and number, as
   the stateless full sweep. So do a mirror fed the net's drained
   batches, a copy and a freeze/thaw round trip: the full sweep sums the
   hops afresh, so each must have carried the running hop count
   exactly. With [rollbacks] some transactions roll back; without, every
   one commits, and the mirror must also equal the source bit for bit
   after each drained batch. Only then does that hold: a rollback undoes
   residuals and the utilisation pair by subtraction and re-appends
   deleted rows at the row's end. *)
let prop_mirror ~name ~rollbacks =
  QCheck.Test.make ~name ~count:30
    QCheck.small_int (fun seed ->
      let net = Net_state.create (Test_util.topo4 ()) in
      let rng = Prng.create (seed + 7) in
      let edge_n = Graph.edge_count (Net_state.graph net) in
      let next = ref 0 in
      let placed = ref [] in
      let pick () =
        match !placed with
        | [] -> None
        | l -> Some (List.nth l (Prng.int rng (List.length l)))
      in
      let place () =
        let src = Prng.int rng 16 in
        let dst = (src + 1 + Prng.int rng 15) mod 16 in
        let id = !next in
        incr next;
        let r = flow ~id ~demand:(Prng.float_in rng 1.0 250.0) src dst in
        match Routing.select_random rng net r with
        | None -> ()
        | Some path -> (
            match Net_state.place net r path with
            | Ok () -> placed := id :: !placed
            | Error _ -> ())
      in
      let remove () =
        match pick () with
        | Some id ->
            ignore (Net_state.remove net id);
            placed := List.filter (( <> ) id) !placed
        | None -> ()
      in
      let reroute_id id =
        match Net_state.flow net id with
        | None -> ()
        | Some p -> (
            match Test_util.candidate_paths net p.Net_state.record with
            | [] -> ()
            | cands ->
                let target =
                  List.nth cands (Prng.int rng (List.length cands))
                in
                ignore (Net_state.reroute net id target))
      in
      let reroute () = Option.iter reroute_id (pick ()) in
      let write () =
        match Prng.int rng 3 with
        | 0 -> place ()
        | 1 -> remove ()
        | _ -> reroute ()
      in
      let txn ~keep =
        let before = !placed in
        Net_state.begin_txn net;
        for _ = 0 to Prng.int rng 4 do
          write ()
        done;
        if keep then Net_state.commit net
        else begin
          Net_state.rollback net;
          placed := before
        end
      in
      (* One committed transaction that writes and then unwrites: a flow
         placed and removed, a flow rerouted twice, an edge disabled and
         enabled, degraded and restored. *)
      let undone () =
        Net_state.begin_txn net;
        let before = !placed in
        place ();
        (match !placed with
        | id :: rest when !placed != before ->
            ignore (Net_state.remove net id);
            placed := rest
        | _ -> ());
        Option.iter
          (fun id ->
            reroute_id id;
            reroute_id id)
          (pick ());
        let e = Prng.int rng edge_n in
        Net_state.disable_edge net e;
        Net_state.enable_edge net e;
        Net_state.degrade_edge net e ~lost_mbps:(Prng.float_in rng 1.0 600.0);
        Net_state.restore_edge_capacity net e;
        Net_state.commit net
      in
      for _ = 0 to 29 do
        place ()
      done;
      let mirror = Net_state.copy net in
      let feed = Net_state.open_cursor net ~bounded:false in
      let injectors = [ (Injector.create [], ref 0); (Injector.create [], ref 0) ] in
      let ok = ref true in
      let ops = 80 in
      for _ = 1 to ops do
        (match Prng.int rng 9 with
        | 0 | 1 -> place ()
        | 2 -> remove ()
        | 3 -> reroute ()
        | 4 -> txn ~keep:true
        | 5 -> if rollbacks then txn ~keep:false else undone ()
        | 6 ->
            let e = Prng.int rng edge_n in
            if Prng.unit_float rng < 0.7 then Net_state.disable_edge net e
            else Net_state.enable_edge net e
        | 7 ->
            Net_state.degrade_edge net (Prng.int rng edge_n)
              ~lost_mbps:(Prng.float_in rng 1.0 600.0)
        | _ -> Net_state.restore_edge_capacity net (Prng.int rng edge_n));
        let full = names (Invariant.check net) in
        Net_state.apply_batch mirror (Net_state.drain_batch net feed);
        if (not rollbacks) && not (mirror_identical net mirror) then ok := false;
        let thawed =
          Net_state.thaw (Net_state.topology net) (Net_state.freeze net)
        in
        List.iter
          (fun other -> if names (Invariant.check other) <> full then ok := false)
          [ mirror; Net_state.copy net; thawed ];
        List.iter
          (fun (inj, full_n) ->
            let before = full_sweeps () in
            if names (Injector.check_now inj net ~now:0.0) <> full then
              ok := false;
            full_n := !full_n + full_sweeps () - before)
          injectors
      done;
      (* Each injector must have run incrementally most of the time. *)
      !ok && List.for_all (fun (_, full_n) -> !full_n < ops / 4) injectors)

let prop_incremental_matches_full =
  prop_mirror ~name:"incremental check = full sweep" ~rollbacks:true

let prop_mirror_bit_identical =
  prop_mirror ~name:"mirror = source, bit for bit" ~rollbacks:false

let suite =
  [
    Alcotest.test_case "schedule deterministic" `Quick test_schedule_deterministic;
    Alcotest.test_case "schedule sorted+paired" `Quick test_schedule_sorted_and_paired;
    Alcotest.test_case "retry policy" `Quick test_retry_policy;
    Alcotest.test_case "recovery digest+stats" `Quick test_recovery_digest_and_stats;
    Alcotest.test_case "invariant blackhole" `Quick test_invariant_detects_blackhole;
    Alcotest.test_case "invariant capacity" `Quick test_invariant_detects_capacity;
    Alcotest.test_case "injector link down" `Quick test_injector_link_down_evacuates;
    Alcotest.test_case "injector switch down/up" `Quick test_injector_switch_down_then_up;
    Alcotest.test_case "injector degrade sheds" `Quick test_injector_degrade_sheds;
    Alcotest.test_case "change log: committed writes only" `Quick
      test_change_log_commit_only;
    Alcotest.test_case "thawed injector checks fully first" `Quick
      test_thawed_injector_first_check_full;
    QCheck_alcotest.to_alcotest prop_incremental_matches_full;
    QCheck_alcotest.to_alcotest prop_mirror_bit_identical;
    Alcotest.test_case "engine empty schedule" `Quick test_engine_empty_schedule_identical;
    Alcotest.test_case "engine chaos deterministic" `Quick test_engine_chaos_deterministic;
    Alcotest.test_case "engine chaos robust" `Quick test_engine_chaos_robust;
    Alcotest.test_case "engine abort then retry" `Quick test_engine_abort_then_retry;
    Alcotest.test_case "engine abort then degrade" `Quick test_engine_abort_then_degrade;
    Alcotest.test_case "engine flow-level faults" `Quick test_engine_flow_level_faults;
    Alcotest.test_case "store-fault plan deterministic" `Quick
      test_store_fault_plan_deterministic;
    Alcotest.test_case "store-fault verdicts" `Quick test_store_fault_verdicts;
    Alcotest.test_case "store-fault fsync loss truncates" `Quick
      test_store_fault_fsync_loss_truncates;
    Alcotest.test_case "lagging cursor dropped" `Quick
      test_lagging_cursor_dropped;
    Alcotest.test_case "edge flow ids: ascending, once" `Quick
      test_edge_flow_ids;
    Alcotest.test_case "incremental check words" `Quick
      test_incremental_check_words;
    Alcotest.test_case "check span names its mode" `Quick test_check_span;
  ]
