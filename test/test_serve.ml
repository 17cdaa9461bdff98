(* nu_serve: admission, journal, source, checkpoint/restore/replay.

   The load-bearing properties are differential: a restored controller
   must reproduce the uninterrupted run's decision digest bit for bit,
   with and without an active fault injector, including recovery from a
   journal whose trailing tick never committed (crash mid-tick). *)

let dummy_flow id =
  Flow_record.v ~id ~src:0 ~dst:1 ~size_mbit:1.0 ~duration_s:1.0 ~arrival_s:0.0

let dummy_event id =
  {
    Event.id;
    arrival_s = 0.0;
    kind = Event.Additions;
    work = [ Event.Install (dummy_flow (100 + id)) ];
  }

let req ?(tenant = "a") id = Serve_request.v ~tenant (dummy_event id)

let event_ids reqs =
  List.map (fun (r, _) -> Serve_request.event_id r) reqs

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)

let test_admission_block () =
  let a = Admission.create ~capacity:2 in
  Alcotest.(check bool) "first" true (Admission.offer a ~tick:0 (req 1) = Admission.Admitted);
  Alcotest.(check bool) "second" true (Admission.offer a ~tick:0 (req 2) = Admission.Admitted);
  Alcotest.(check bool) "full defers" true (Admission.offer a ~tick:0 (req 3) = Admission.Deferred);
  Alcotest.(check int) "size" 2 (Admission.size a)

let test_admission_fair_drain () =
  let a = Admission.create ~capacity:10 in
  ignore (Admission.offer a ~tick:0 (req ~tenant:"a" 1));
  ignore (Admission.offer a ~tick:0 (req ~tenant:"a" 2));
  ignore (Admission.offer a ~tick:0 (req ~tenant:"a" 3));
  ignore (Admission.offer a ~tick:0 (req ~tenant:"b" 4));
  (* Round-robin: one per tenant per sweep, so b's single request is
     served second despite three of a's queued ahead of it. *)
  Alcotest.(check (list int)) "rotation order" [ 1; 4; 2 ]
    (event_ids (Admission.drain a ~max:3));
  Alcotest.(check (list int)) "remainder" [ 3 ]
    (event_ids (Admission.drain a ~max:3))

let test_admission_freeze_thaw () =
  let a = Admission.create ~capacity:4 in
  ignore (Admission.offer a ~tick:0 (req ~tenant:"a" 1));
  ignore (Admission.offer a ~tick:1 (req ~tenant:"b" 2));
  ignore (Admission.offer a ~tick:1 (req ~tenant:"a" 3));
  ignore (Admission.drain a ~max:1);
  let b = Admission.thaw ~capacity:4 (Admission.freeze a) in
  Alcotest.(check int) "size" (Admission.size a) (Admission.size b);
  Alcotest.(check (list int)) "same drain order"
    (event_ids (Admission.drain a ~max:5))
    (event_ids (Admission.drain b ~max:5))

(* ------------------------------------------------------------------ *)
(* Journal                                                             *)

(* A journal entry as a comparable string. *)
let entry_str = function
  | Journal.Tick_done t -> Printf.sprintf "done %d" t
  | Journal.Arrive { tick; request } ->
      Printf.sprintf "arrive %d %s" tick
        (Obs.Json.to_string (Serve_codec.request_to_json request))

let test_journal_roundtrip () =
  let path = Filename.temp_file "nu_serve_journal" ".jsonl" in
  let w = Journal.open_writer path in
  let entries =
    [
      Journal.Arrive { tick = 0; request = req ~tenant:"a" 1 };
      Journal.Tick_done 0;
      Journal.Arrive { tick = 1; request = req ~tenant:"b" 2 };
      Journal.Arrive { tick = 1; request = req ~tenant:"a" 3 };
      Journal.Tick_done 1;
    ]
  in
  List.iter (Journal.write w) entries;
  Obs.Store.close w;
  (match Journal.read_report path with
  | Error m -> Alcotest.fail m
  | Ok { Journal.entries = back; _ } ->
      Alcotest.(check int) "count" (List.length entries) (List.length back);
      List.iter2
        (fun a b ->
          Alcotest.(check string) "entry" (entry_str a) (entry_str b))
        entries back);
  Sys.remove path

let test_journal_committed_ticks () =
  let entries =
    [
      Journal.Tick_done 0;
      Journal.Arrive { tick = 1; request = req 1 };
      Journal.Tick_done 1;
      (* Crash mid-tick 2: arrivals journaled, commit marker missing. *)
      Journal.Arrive { tick = 2; request = req 2 };
      Journal.Arrive { tick = 2; request = req 3 };
    ]
  in
  let groups = Journal.committed_ticks entries in
  Alcotest.(check (list int)) "committed ticks only" [ 0; 1 ]
    (List.map fst groups);
  Alcotest.(check (list int)) "tick 1 payload" [ 1 ]
    (List.map
       (fun r -> Serve_request.event_id r)
       (List.assoc 1 groups))

let group_strs groups =
  List.map
    (fun (t, reqs) ->
      Printf.sprintf "%d:%s" t
        (String.concat ","
           (List.map
              (fun r -> Obs.Json.to_string (Serve_codec.request_to_json r))
              reqs)))
    groups

let rec is_prefix xs ys =
  match (xs, ys) with
  | [], _ -> true
  | x :: xs', y :: ys' -> x = y && is_prefix xs' ys'
  | _ :: _, [] -> false

let rec is_subseq xs ys =
  match (xs, ys) with
  | [], _ -> true
  | _ :: _, [] -> false
  | x :: xs', y :: ys' -> if x = y then is_subseq xs' ys' else is_subseq xs ys'

(* A small WAL fixture shared by the damage properties: four committed
   ticks of two arrivals each, as raw on-disk bytes. *)
let wal_fixture =
  lazy
    (let path = Filename.temp_file "nu_wal_fixture" ".wal" in
     let entries =
       List.concat_map
         (fun t ->
           [
             Journal.Arrive { tick = t; request = req ((10 * t) + 1) };
             Journal.Arrive { tick = t; request = req ((10 * t) + 2) };
             Journal.Tick_done t;
           ])
         [ 0; 1; 2; 3 ]
     in
     let w = Journal.open_writer path in
     List.iter (Journal.write w) entries;
     Obs.Store.close w;
     let ic = open_in_bin path in
     let data = really_input_string ic (in_channel_length ic) in
     close_in ic;
     Sys.remove path;
     (entries, data))

(* Satellite (c): truncating the journal at *every* byte offset must
   yield a prefix of the committed ticks — never a decode exception,
   never a phantom entry or tick. *)
let test_journal_truncation_every_offset () =
  let entries, data = Lazy.force wal_fixture in
  let orig_entries = List.map entry_str entries in
  let orig_groups = group_strs (Journal.committed_ticks entries) in
  let path = Filename.temp_file "nu_wal_trunc" ".wal" in
  let len = String.length data in
  for k = 0 to len do
    let oc = open_out_bin path in
    output_string oc (String.sub data 0 k);
    close_out oc;
    match Journal.read_report path with
    | Error m -> Alcotest.failf "offset %d: read_report errored: %s" k m
    | Ok r ->
        if not (is_prefix (List.map entry_str r.Journal.entries) orig_entries)
        then Alcotest.failf "offset %d: decoded a phantom entry" k;
        let groups = group_strs (Journal.committed_ticks r.Journal.entries) in
        if not (is_prefix groups orig_groups) then
          Alcotest.failf "offset %d: phantom committed tick" k;
        if k = len && r.Journal.corrupt <> [] then
          Alcotest.failf "untruncated journal reported corruption"
  done;
  Sys.remove path

(* Any single flipped bit past the segment magic costs at most frames,
   never correctness: the surviving entries are a subsequence of what
   was written (CRC32 catches every single-bit error) and no unwritten
   tick can appear committed. *)
let prop_journal_bit_flip =
  QCheck.Test.make ~name:"journal survives any single bit flip" ~count:150
    QCheck.(pair small_nat (int_range 0 7))
    (fun (off_raw, bit) ->
      let entries, data = Lazy.force wal_fixture in
      let magic = 8 in
      let off = magic + (off_raw mod (String.length data - magic)) in
      let b = Bytes.of_string data in
      Bytes.set b off
        (Char.chr (Char.code (Bytes.get b off) lxor (1 lsl bit)));
      let path = Filename.temp_file "nu_wal_flip" ".wal" in
      let oc = open_out_bin path in
      output_bytes oc b;
      close_out oc;
      let ok =
        match Journal.read_report path with
        | Error _ -> false
        | Ok r ->
            let orig = List.map entry_str entries in
            let got = List.map entry_str r.Journal.entries in
            let orig_ticks =
              List.map fst (Journal.committed_ticks entries)
            in
            let got_ticks =
              List.map fst (Journal.committed_ticks r.Journal.entries)
            in
            is_subseq got orig
            && List.for_all (fun t -> List.mem t orig_ticks) got_ticks
      in
      Sys.remove path;
      ok)

let remove_segments path =
  List.iter
    (fun i ->
      let p = Journal.segment_path path i in
      if Sys.file_exists p then Sys.remove p)
    [ 0; 1; 2; 3; 4; 5 ]

let test_journal_segment_rotation_and_append () =
  let path = Filename.temp_file "nu_wal_seg" ".wal" in
  let entry i =
    if i mod 3 = 2 then Journal.Tick_done (i / 3)
    else Journal.Arrive { tick = i / 3; request = req i }
  in
  let w = Journal.open_writer path in
  (* Segments rotate past 4 MiB: write until the second one opens, then
     30 entries more. *)
  let rec fill i more =
    if more = 0 then i
    else begin
      Journal.write w (entry i);
      let rotated = Sys.file_exists (Journal.segment_path path 1) in
      fill (i + 1) (if rotated then more - 1 else more)
    end
  in
  let entries = List.init (fill 0 30) entry in
  Obs.Store.close w;
  Alcotest.(check bool) "rotated to a second segment" true
    (Sys.file_exists (Journal.segment_path path 1));
  (match Journal.read_report path with
  | Error m -> Alcotest.fail m
  | Ok r ->
      Alcotest.(check bool) "walked several segments" true (r.Journal.segments > 1);
      Alcotest.(check int) "no corruption" 0 (List.length r.Journal.corrupt);
      Alcotest.(check (list string)) "all entries, in order"
        (List.map entry_str entries)
        (List.map entry_str r.Journal.entries));
  remove_segments path

(* ------------------------------------------------------------------ *)
(* Source                                                              *)

let spec_of ?(seed = 21) () =
  Serve_source.Synthetic
    {
      seed;
      rate_per_tick = 0.7;
      flows_per_event = 2;
      tenants = [ "a"; "b" ];
      first_event_id = 1;
      first_flow_id = 1_000_000;
    }

let poll_strings src ~from ~upto =
  List.concat_map
    (fun tick ->
      List.map
        (fun r -> Obs.Json.to_string (Serve_codec.request_to_json r))
        (Serve_source.poll src ~tick ~now_s:(0.05 *. float_of_int tick)))
    (List.init (upto - from) (fun i -> from + i))

let test_source_deterministic () =
  let a = Serve_source.create ~host_count:16 (spec_of ()) in
  let b = Serve_source.create ~host_count:16 (spec_of ()) in
  Alcotest.(check (list string)) "same arrivals"
    (poll_strings a ~from:0 ~upto:20)
    (poll_strings b ~from:0 ~upto:20);
  let c = Serve_source.create ~host_count:16 (spec_of ~seed:99 ()) in
  Alcotest.(check bool) "different seed differs" false
    (poll_strings a ~from:20 ~upto:40 = poll_strings c ~from:20 ~upto:40)

let test_source_freeze_thaw () =
  let a = Serve_source.create ~host_count:16 (spec_of ()) in
  ignore (poll_strings a ~from:0 ~upto:10);
  let fz = Serve_source.freeze a in
  (* Round-trip the frozen cursor through JSON too. *)
  let fz =
    match Serve_source.frozen_of_json (Serve_source.frozen_to_json fz) with
    | Ok fz -> fz
    | Error m -> Alcotest.fail m
  in
  let b = Serve_source.thaw ~host_count:16 (spec_of ()) fz in
  Alcotest.(check (list string)) "thawed continues identically"
    (poll_strings a ~from:10 ~upto:25)
    (poll_strings b ~from:10 ~upto:25)

(* ------------------------------------------------------------------ *)
(* Differential harness                                                *)

let scenario () = Scenario.prepare ~k:4 ~utilization:0.6 ~seed:11 ()

let cfg ?(capacity = 8) ?churn ?(domains = 1) () =
  {
    Serve.policy = Policy.Plmtf { alpha = 2 };
    engine_seed = 5;
    admission_capacity = capacity;
    admission_policy = Admission.Block;
    drain_per_tick = 2;
    steps_per_tick = 3;
    tick_dt_s = 0.05;
    churn;
    domains;
  }

let test_stepper_equals_batch () =
  let s = scenario () in
  let events = Scenario.events s ~n:10 in
  let policy = Policy.Plmtf { alpha = 2 } in
  let batch =
    Engine.run ~seed:5 ~net:(Net_state.copy s.Scenario.net) ~events policy
  in
  let st =
    Engine.Stepper.create ~seed:5 ~net:(Net_state.copy s.Scenario.net) policy
  in
  Engine.Stepper.submit st events;
  while Engine.Stepper.step st <> `Idle do () done;
  Alcotest.(check string) "digest equal"
    (Run_digest.of_run batch)
    (Run_digest.of_run (Engine.Stepper.result st))

let test_net_freeze_thaw () =
  let s = scenario () in
  let events = Scenario.events s ~n:8 in
  let policy = Policy.Lmtf { alpha = 2 } in
  let thawed =
    Net_state.thaw s.Scenario.topology (Net_state.freeze s.Scenario.net)
  in
  Alcotest.(check string) "runs on thawed net are bit-identical"
    (Run_digest.of_run
       (Engine.run ~seed:5 ~net:(Net_state.copy s.Scenario.net) ~events policy))
    (Run_digest.of_run (Engine.run ~seed:5 ~net:thawed ~events policy))

(* Thaw sizes each edge's rows from a count of the hops over it: the
   thawed state sweeps clean and freezes back to what it was thawed
   from, and a repeated flow id is refused rather than half-applied. *)
let test_net_thaw_counts () =
  let s = scenario () in
  let fz = Net_state.freeze s.Scenario.net in
  let t = Net_state.thaw s.Scenario.topology fz in
  Alcotest.(check bool) "invariants hold" true (Net_state.invariants_ok t = Ok ());
  Alcotest.(check bool) "freeze of thaw = frozen" true
    (compare (Net_state.freeze t) fz = 0);
  match fz.Net_state.fz_flows with
  | first :: _ ->
      Alcotest.check_raises "repeated flow id"
        (Invalid_argument "Net_state.thaw: duplicate flow id") (fun () ->
          ignore
            (Net_state.thaw s.Scenario.topology
               { fz with Net_state.fz_flows = first :: fz.Net_state.fz_flows }))
  | [] -> Alcotest.fail "the scenario places flows"

let test_stepper_freeze_thaw_mid_run () =
  let s = scenario () in
  let events = Scenario.events s ~n:10 in
  let policy = Policy.Plmtf { alpha = 2 } in
  let digest_straight =
    let st =
      Engine.Stepper.create ~seed:5 ~net:(Net_state.copy s.Scenario.net) policy
    in
    Engine.Stepper.submit st events;
    while Engine.Stepper.step st <> `Idle do () done;
    Run_digest.of_run (Engine.Stepper.result st)
  in
  let net_b = Net_state.copy s.Scenario.net in
  let st = Engine.Stepper.create ~seed:5 ~net:net_b policy in
  Engine.Stepper.submit st events;
  for _ = 1 to 4 do
    ignore (Engine.Stepper.step st)
  done;
  (* Freeze mid-run, thaw into a fresh stepper over a thawed net, finish
     there: the digest must match the uninterrupted run bit for bit. *)
  let fz = Engine.Stepper.freeze st in
  let net2 = Net_state.thaw s.Scenario.topology (Net_state.freeze net_b) in
  let st2 = Engine.Stepper.thaw ~net:net2 fz in
  while Engine.Stepper.step st2 <> `Idle do () done;
  Alcotest.(check string) "digest equal" digest_straight
    (Run_digest.of_run (Engine.Stepper.result st2))

(* ------------------------------------------------------------------ *)
(* Serve: controller-level differentials                               *)

(* Checkpoint saves rotate a chain (cp, cp.1, cp.2, ...); tests that
   rmdir their scratch directory must sweep every generation. *)
let remove_chain cp =
  List.iter
    (fun i ->
      let p = Serve_checkpoint.Chain.gen_path cp i in
      if Sys.file_exists p then Sys.remove p)
    [ 0; 1; 2; 3 ]

(* [Serve.create] with a fault injector: the one-shard fabric, built
   directly. *)
let fabric_create ?injector ?telemetry ?journal config ~topology ~net
    ~source_spec =
  Shard_fabric.create ?injector ?telemetry ?journal
    (Shard_fabric.default_config config ~shards:1)
    ~topology ~net ~source_spec

let serve_uninterrupted ?injector ~ticks () =
  let s = scenario () in
  let t =
    fabric_create ?injector (cfg ()) ~topology:s.Scenario.topology
      ~net:s.Scenario.net ~source_spec:(spec_of ())
  in
  Serve.run ~ticks t;
  Serve.complete t;
  Serve.digest t

let test_serve_checkpoint_restore_differential () =
  let expected = serve_uninterrupted ~ticks:27 () in
  let dir = Filename.temp_file "nu_serve" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let cp = Filename.concat dir "cp.json" in
  let jp = Filename.concat dir "journal.jsonl" in
  (* Interrupted twin: journal everything, checkpoint every 8 ticks,
     stop dead after tick 27 (last checkpoint at tick 24). *)
  let s = scenario () in
  let w = Journal.open_writer jp in
  let t =
    Serve.create ~journal:w (cfg ()) ~topology:s.Scenario.topology
      ~net:s.Scenario.net ~source_spec:(spec_of ())
  in
  Shard_fabric.run ~checkpoint_path:cp ~checkpoint_every:8 t ~ticks:27;
  Obs.Store.close w;
  (* Recover elsewhere: only the checkpoint, the journal, the topology
     and the original configuration cross the "crash". *)
  let topology = Fat_tree.to_topology (Fat_tree.create ~k:4 ()) in
  match
    Serve.restore ~config:(cfg ()) ~source_spec:(spec_of ()) ~topology cp
  with
  | Error m -> Alcotest.fail m
  | Ok t2 ->
      Alcotest.(check int) "restored at the last checkpoint" 24
        (Serve.tick_count t2);
      (match Serve.replay ~journal:jp t2 with
      | Error m -> Alcotest.fail m
      | Ok n -> Alcotest.(check int) "re-drove the journal suffix" 3 n);
      Serve.complete t2;
      Alcotest.(check string) "digest equal" expected (Serve.digest t2);
      remove_chain cp;
      Sys.remove jp;
      Sys.rmdir dir

let make_injector topology =
  let config =
    {
      Fault_model.default_config with
      Fault_model.rate_per_s = 0.5;
      horizon_s = 1.0;
    }
  in
  Injector.create (Fault_model.generate ~config ~seed:3 topology)

let test_serve_crash_recovery_under_faults () =
  let expected =
    let s = scenario () in
    serve_uninterrupted ~injector:(make_injector s.Scenario.topology)
      ~ticks:20 ()
  in
  let dir = Filename.temp_file "nu_serve" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let cp = Filename.concat dir "cp.json" in
  let jp = Filename.concat dir "journal.jsonl" in
  let s = scenario () in
  let w = Journal.open_writer jp in
  let t =
    fabric_create ~injector:(make_injector s.Scenario.topology) ~journal:w
      (cfg ()) ~topology:s.Scenario.topology ~net:s.Scenario.net
      ~source_spec:(spec_of ())
  in
  Shard_fabric.run ~checkpoint_path:cp ~checkpoint_every:10 t ~ticks:15;
  (* Simulate a crash mid-tick 15: arrivals hit the journal, the commit
     marker never did. Replay must discard them; the resumed source
     regenerates the real tick-15 arrivals bit-identically. *)
  Journal.write w (Journal.Arrive { tick = 15; request = req 999 });
  Obs.Store.close w;
  let topology = Fat_tree.to_topology (Fat_tree.create ~k:4 ()) in
  match
    Serve.restore ~config:(cfg ()) ~source_spec:(spec_of ()) ~topology cp
  with
  | Error m -> Alcotest.fail m
  | Ok t2 ->
      Alcotest.(check int) "restored at tick 10" 10 (Serve.tick_count t2);
      (match Serve.replay ~journal:jp t2 with
      | Error m -> Alcotest.fail m
      | Ok n ->
          Alcotest.(check int) "committed ticks 10-14 replayed, torn tick dropped" 5 n);
      (* Resume live serving for the ticks the crash swallowed. *)
      Serve.run ~ticks:5 t2;
      Serve.complete t2;
      Alcotest.(check string) "digest equal" expected (Serve.digest t2);
      remove_chain cp;
      Sys.remove jp;
      Sys.rmdir dir

let test_serve_restore_rejects_config_mismatch () =
  let dir = Filename.temp_file "nu_serve" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let cp = Filename.concat dir "cp.json" in
  let s = scenario () in
  let t =
    Serve.create (cfg ()) ~topology:s.Scenario.topology ~net:s.Scenario.net
      ~source_spec:(spec_of ())
  in
  Serve.run ~ticks:5 t;
  ignore (Serve.save_checkpoint t cp : string);
  let topology = Fat_tree.to_topology (Fat_tree.create ~k:4 ()) in
  (match
     Serve.restore ~config:(cfg ~capacity:99 ()) ~source_spec:(spec_of ())
       ~topology cp
   with
  | Error m ->
      Alcotest.(check bool) "mentions mismatch" true (Test_util.contains m "mismatch")
  | Ok _ -> Alcotest.fail "restore should refuse a different configuration");
  remove_chain cp;
  Sys.rmdir dir

(* Checkpoints written by older builds carry fields of retired knobs in
   their fingerprint: the engine's "estimate_cache" flag in the config,
   the coordinator's "max_cost_mbit" cost cap in the coord section. At
   a value that never moved a decision they still restore, and the run
   continues to the uninterrupted digest; a live cost cap is refused. *)
let test_serve_restore_accepts_cache_flag () =
  let expected = serve_uninterrupted ~ticks:12 () in
  let dir = Filename.temp_file "nu_serve" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let cp = Filename.concat dir "cp.json" in
  let s = scenario () in
  let t =
    Serve.create (cfg ()) ~topology:s.Scenario.topology ~net:s.Scenario.net
      ~source_spec:(spec_of ())
  in
  Serve.run ~ticks:12 t;
  let snap = Shard_fabric.snapshot t in
  let restore_with ~section field value =
    let with_field = function
      | Obs.Json.Obj fields ->
          Obs.Json.Obj
            (List.map
               (function
                 | name, Obs.Json.Obj c when name = section ->
                     (name, Obs.Json.Obj (c @ [ (field, value) ]))
                 | kv -> kv)
               fields)
      | j -> j
    in
    ignore
      (Serve_checkpoint.Chain.save cp
         {
           snap with
           Serve_checkpoint.meta = with_field snap.Serve_checkpoint.meta;
         }
        : string);
    let topology = Fat_tree.to_topology (Fat_tree.create ~k:4 ()) in
    let r =
      Serve.restore ~config:(cfg ()) ~source_spec:(spec_of ()) ~topology cp
    in
    remove_chain cp;
    r
  in
  let restores ~section field value =
    match restore_with ~section field value with
    | Error m -> Alcotest.fail m
    | Ok t2 ->
        Serve.complete t2;
        Alcotest.(check string)
          (field ^ ": digest equal") expected (Serve.digest t2)
  in
  restores ~section:"config" "estimate_cache" (Obs.Json.Bool true);
  restores ~section:"coord" "max_cost_mbit" (Obs.Json.Float 0.0);
  (match
     restore_with ~section:"coord" "max_cost_mbit" (Obs.Json.Float 1.0)
   with
  | Error m ->
      Alcotest.(check bool) "live cost cap: mismatch" true
        (Test_util.contains m "mismatch")
  | Ok _ -> Alcotest.fail "restore should refuse a live cost cap");
  Sys.rmdir dir

(* A checkpoint file's two lines: the header object and the core. *)
let checkpoint_lines bytes =
  match String.split_on_char '\n' bytes with
  | [ header; core; "" ] -> (header, core)
  | _ -> Alcotest.fail "checkpoint file is not two newline-terminated lines"

let read_bytes path = In_channel.with_open_bin path In_channel.input_all

let test_serve_checkpoint_json_roundtrip () =
  let s = scenario () in
  let graph = s.Scenario.topology.Topology.graph in
  let t =
    Serve.create (cfg ()) ~topology:s.Scenario.topology ~net:s.Scenario.net
      ~source_spec:(spec_of ())
  in
  Serve.run ~ticks:12 t;
  let cp = Shard_fabric.snapshot t in
  (* The saved file is header ^ "\n" ^ core ^ "\n", and the returned
     hash is the FNV of the core bytes as stored. *)
  let path = Filename.temp_file "nu_cp" ".json" in
  (* A fresh chain: no earlier file for the save to rotate. *)
  Sys.remove path;
  let hash = Serve_checkpoint.Chain.save path cp in
  let bytes = read_bytes path in
  let header, core = checkpoint_lines bytes in
  Alcotest.(check string) "file = to_string" (Serve_checkpoint.to_string cp) bytes;
  Alcotest.(check string) "returned hash = FNV of stored core"
    (Obs.Fnv.string_hex core) hash;
  Alcotest.(check string) "header"
    (Printf.sprintf
       {|{"format":"nu_serve_checkpoint","version":4,"seq":0,"hash":"%s"}|} hash)
    header;
  (* Stable through save, load and save (to a fresh chain, so the
     second save is generation 0 too). *)
  let path2 = path ^ ".again" in
  (match Serve_checkpoint.load ~graph path with
  | Error m -> Alcotest.fail m
  | Ok cp2 ->
      ignore (Serve_checkpoint.Chain.save path2 cp2 : string);
      Alcotest.(check string) "stable through save/load/save" bytes
        (read_bytes path2));
  remove_chain path;
  remove_chain path2

(* ------------------------------------------------------------------ *)
(* Telemetry: recording-only, digest-neutral                           *)

let test_serve_telemetry_digest_differential () =
  let plain = serve_uninterrupted ~ticks:27 () in
  let dir = Filename.temp_file "nu_telemetry" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let tel =
    Serve_telemetry.create
      {
        Serve_telemetry.default_config with
        Serve_telemetry.metrics_dir = Some dir;
        metrics_every = 5;
      }
  in
  let s = scenario () in
  let t =
    Serve.create ~telemetry:tel (cfg ()) ~topology:s.Scenario.topology
      ~net:s.Scenario.net ~source_spec:(spec_of ())
  in
  Serve.run ~ticks:27 t;
  Serve.complete t;
  Alcotest.(check string)
    "digest identical with full telemetry attached" plain (Serve.digest t);
  ignore (Serve.retire t);
  (* The run actually produced telemetry. *)
  let lc = Serve_telemetry.lifecycle tel in
  Alcotest.(check bool) "stamps recorded" true (Obs.Lifecycle.stamped lc > 0);
  Alcotest.(check bool)
    "expo written" true
    (Serve_telemetry.expo_writes tel > 0);
  let summary block key =
    Option.bind
      (Obs.Json.member block (Serve_telemetry.to_json tel))
      (Obs.Json.member key)
  in
  let measured = function
    | Some (Obs.Json.Float _) -> true
    | _ -> false
  in
  Alcotest.(check bool)
    "fairness saw completions" true
    (measured (summary "fairness" "jain_index"));
  (* The scrape file is well-formed exposition text. *)
  let prom = Filename.concat dir "metrics.prom" in
  let ic = open_in prom in
  let body = really_input_string ic (in_channel_length ic) in
  close_in ic;
  (match Obs.Expo.validate body with
  | Ok () -> ()
  | Error m -> Alcotest.failf "invalid exposition: %s" m);
  (* The lifecycle stream reads back, every id's stamps in stage order
     ending terminally for completed requests. *)
  (match Obs.Lifecycle.read_log (Filename.concat dir "lifecycle.jsonl") with
  | Error m -> Alcotest.failf "lifecycle read: %s" m
  | Ok { Obs.Store.entries; _ } ->
      Alcotest.(check int)
        "one record per stamp" (Obs.Lifecycle.stamped lc)
        (List.length entries);
      let terminal =
        List.filter
          (fun e ->
            match e.Obs.Lifecycle.stage with
            | Completed _ | Degraded _ -> true
            | _ -> false)
          entries
      in
      Alcotest.(check int)
        "one terminal stamp per completion" (Shard_fabric.completed t)
        (List.length terminal));
  Array.iter Sys.remove (Sys.readdir dir |> Array.map (Filename.concat dir));
  Sys.rmdir dir

(* ------------------------------------------------------------------ *)
(* Watchdog: recording-only, alert digest replay-stable                *)

let temp_dir () =
  let d = Filename.temp_file "nu_watch_serve" "" in
  Sys.remove d;
  Sys.mkdir d 0o700;
  d

let rm_rf dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let watch_telemetry ?metrics_dir dir =
  Serve_telemetry.create
    {
      Serve_telemetry.metrics_dir;
      metrics_every = 5;
      watch = Some { Obs.Watch.dir };
    }

(* Telemetry and the watchdog create a nested metrics directory with
   its missing parents, and write every artifact into it. *)
let test_serve_telemetry_nested_dir () =
  let root = temp_dir () in
  let a = Filename.concat root "a" in
  let nested = Filename.concat a "b" in
  let tel = watch_telemetry ~metrics_dir:nested (Some nested) in
  let s = scenario () in
  let t =
    Serve.create ~telemetry:tel (cfg ()) ~topology:s.Scenario.topology
      ~net:s.Scenario.net ~source_spec:(spec_of ())
  in
  Serve.run ~ticks:10 t;
  Serve.complete t;
  ignore (Serve.retire t : Engine.run_result);
  List.iter
    (fun f ->
      Alcotest.(check bool) (f ^ " written") true
        (Sys.file_exists (Filename.concat nested f)))
    [ "metrics.prom"; "lifecycle.jsonl"; "watch.jsonl"; "alerts.jsonl" ];
  rm_rf nested;
  Sys.rmdir a;
  Sys.rmdir root

let test_serve_watch_digest_differential () =
  let plain = serve_uninterrupted ~ticks:27 () in
  let dir = temp_dir () in
  let tel = watch_telemetry ~metrics_dir:dir (Some dir) in
  let s = scenario () in
  let t =
    Serve.create ~telemetry:tel (cfg ()) ~topology:s.Scenario.topology
      ~net:s.Scenario.net ~source_spec:(spec_of ())
  in
  Serve.run ~ticks:27 t;
  Serve.complete t;
  Alcotest.(check string)
    "digest identical with alerts in flight" plain (Serve.digest t);
  let w =
    match Serve_telemetry.watch tel with
    | Some w -> w
    | None -> Alcotest.fail "watcher not attached"
  in
  Alcotest.(check bool) "alerts fired" true (Obs.Watch.alert_total w > 0);
  Alcotest.(check bool)
    "global health escalated" true
    (Obs.Watch.global_state w <> Obs.Health.Ok);
  ignore (Serve.retire t);
  (* The journalled alert stream hashes to the live digest, and the
     exposition carries the nu_alerts_* families. *)
  (match Obs.Watch.read_alerts_digest (Filename.concat dir "alerts.jsonl") with
  | Error m -> Alcotest.failf "read_alerts_digest: %s" m
  | Ok (digest, records, _) ->
      Alcotest.(check string) "journal digest" (Obs.Watch.alert_digest w) digest;
      Alcotest.(check int) "journal records" (Obs.Watch.alert_total w) records);
  let prom = Filename.concat dir "metrics.prom" in
  let ic = open_in prom in
  let body = really_input_string ic (in_channel_length ic) in
  close_in ic;
  (match Obs.Expo.validate body with
  | Ok () -> ()
  | Error m -> Alcotest.failf "invalid exposition: %s" m);
  Alcotest.(check bool)
    "alert families exposed" true
    (Test_util.contains body "nu_alerts_total");
  rm_rf dir

let prop_watch_replay_alert_digest =
  (* Crash/restore/replay must reproduce not only the decision digest
     but the watchdog's alert journal digest, bit for bit, for any
     source seed. 50 ticks, because the fixed bank raises alerts on
     every seed in the range only from about there on; the property
     requires some, so that it never compares two empty streams. *)
  QCheck.Test.make ~name:"replay reproduces the live watch alert digest"
    ~count:3
    QCheck.(int_range 20 39)
    (fun seed ->
      let dir_a = temp_dir () and dir_b = temp_dir () in
      let cp = Filename.concat dir_b "cp.json" in
      let jp = Filename.concat dir_b "journal.jsonl" in
      Fun.protect
        ~finally:(fun () ->
          remove_chain cp;
          rm_rf dir_a;
          rm_rf dir_b)
        (fun () ->
          let finish t tel =
            Serve.complete t;
            let w = Option.get (Serve_telemetry.watch tel) in
            let out =
              ( Serve.digest t,
                Obs.Watch.alert_digest w,
                Obs.Watch.alert_total w )
            in
            ignore (Serve.retire t);
            out
          in
          let uninterrupted =
            let tel = watch_telemetry (Some dir_a) in
            let s = scenario () in
            let t =
              Serve.create ~telemetry:tel (cfg ())
                ~topology:s.Scenario.topology ~net:s.Scenario.net
                ~source_spec:(spec_of ~seed ())
            in
            Serve.run ~ticks:50 t;
            finish t tel
          in
          (* Interrupted twin: checkpoint every 16 ticks, journal every
             tick, crash dead after tick 50 (no close, no retire). *)
          let s = scenario () in
          let w = Journal.open_writer jp in
          let t =
            Serve.create ~telemetry:(watch_telemetry (Some dir_b)) ~journal:w
              (cfg ()) ~topology:s.Scenario.topology ~net:s.Scenario.net
              ~source_spec:(spec_of ~seed ())
          in
          Shard_fabric.run ~checkpoint_path:cp ~checkpoint_every:16 t ~ticks:50;
          Obs.Store.close w;
          let topology = Fat_tree.to_topology (Fat_tree.create ~k:4 ()) in
          let tel2 = watch_telemetry (Some dir_b) in
          match
            Shard_fabric.replay ~telemetry:tel2 ~checkpoint_path:cp
              (Shard_fabric.default_config (cfg ()) ~shards:1)
              ~topology ~net:(scenario ()).Scenario.net
              ~source_spec:(spec_of ~seed ()) ~journal_base:jp
          with
          | Error m -> Alcotest.failf "restore + replay: %s" m
          | Ok (t2, _) ->
              let _, _, alerts = uninterrupted in
              alerts > 0 && uninterrupted = finish t2 tel2))

let prop_watch_domains_alert_digest =
  (* The probe fan-out width is a wall-clock knob: the watchdog's alert
     stream over a 4-domain run must equal the sequential run's. 50
     ticks, as above, so that both streams hold alerts. *)
  QCheck.Test.make ~name:"watch alert digest equal at 1 vs 4 domains" ~count:3
    QCheck.(int_range 40 59)
    (fun seed ->
      let run domains =
        let tel = watch_telemetry None in
        let s = scenario () in
        let t =
          Serve.create ~telemetry:tel
            (cfg ~domains ())
            ~topology:s.Scenario.topology ~net:s.Scenario.net
            ~source_spec:(spec_of ~seed ())
        in
        Serve.run ~ticks:50 t;
        Serve.complete t;
        let w = Option.get (Serve_telemetry.watch tel) in
        let out =
          (Serve.digest t, Obs.Watch.alert_digest w, Obs.Watch.alert_total w)
        in
        ignore (Serve.retire t);
        out
      in
      let ((_, _, alerts) as sequential) = run 1 in
      alerts > 0 && sequential = run 4)

(* ------------------------------------------------------------------ *)
(* Checkpoint verification and chain fallback                          *)

(* Flip one byte inside the stored core while leaving the header's
   hash alone: the load must refuse it before parsing. *)
let test_checkpoint_hash_rejects_mutation () =
  let s = scenario () in
  let graph = s.Scenario.topology.Topology.graph in
  let t =
    Serve.create (cfg ()) ~topology:s.Scenario.topology ~net:s.Scenario.net
      ~source_spec:(spec_of ())
  in
  Serve.run ~ticks:6 t;
  let bytes = Serve_checkpoint.to_string (Shard_fabric.snapshot t) in
  let header, core = checkpoint_lines bytes in
  let b = Bytes.of_string bytes in
  let at = String.length header + 1 + (String.length core / 2) in
  Bytes.set b at (if Bytes.get b at = '0' then '1' else '0');
  (match Serve_checkpoint.of_string ~graph (Bytes.to_string b) with
  | Error m ->
      Alcotest.(check bool) "names the hash" true (Test_util.contains m "hash")
  | Ok _ -> Alcotest.fail "a mutated core must not verify");
  (* The untouched bytes still load, so the rejection above is the
     hash check and not an over-eager parser. *)
  match Serve_checkpoint.of_string ~graph bytes with
  | Error m -> Alcotest.fail m
  | Ok _ -> ()

let corrupt_file path =
  let ic = open_in_bin path in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let b = Bytes.of_string data in
  let mid = Bytes.length b / 2 in
  Bytes.set b mid (if Bytes.get b mid = 'X' then 'Y' else 'X');
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let test_checkpoint_chain_rotation_and_fallback () =
  let dir = Filename.temp_file "nu_chain" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let cp = Filename.concat dir "cp.json" in
  let s = scenario () in
  let t =
    Serve.create (cfg ()) ~topology:s.Scenario.topology ~net:s.Scenario.net
      ~source_spec:(spec_of ())
  in
  let graph = s.Scenario.topology.Topology.graph in
  List.iter
    (fun ticks ->
      Serve.run ~ticks t;
      ignore (Serve.save_checkpoint t cp : string))
    [ 3; 3; 3 ];
  (* Three saves: generations 0 (tick 9), 1 (tick 6), 2 (tick 3). *)
  Alcotest.(check (list int)) "three generations on disk" [ 0; 1; 2 ]
    (List.filter
       (fun i -> Sys.file_exists (Serve_checkpoint.Chain.gen_path cp i))
       [ 0; 1; 2; 3 ]);
  (match Serve_checkpoint.Chain.fallback ~graph cp with
  | Error m -> Alcotest.fail m
  | Ok (c, depth) ->
      Alcotest.(check int) "newest wins" 9 c.Serve_checkpoint.tick;
      Alcotest.(check int) "depth 0" 0 depth;
      Alcotest.(check int) "chain sequence threaded" 2 c.Serve_checkpoint.seq;
      Alcotest.(check bool) "parent hash recorded" true
        (c.Serve_checkpoint.parent <> None));
  (* Damage the newest generation: fallback must land on its parent. *)
  corrupt_file cp;
  (match Serve_checkpoint.Chain.fallback ~graph cp with
  | Error m -> Alcotest.fail m
  | Ok (c, depth) ->
      Alcotest.(check int) "older ancestor restored" 6 c.Serve_checkpoint.tick;
      Alcotest.(check int) "depth 1" 1 depth);
  (* Damage every generation: fallback refuses, naming each failure. *)
  corrupt_file (Serve_checkpoint.Chain.gen_path cp 1);
  corrupt_file (Serve_checkpoint.Chain.gen_path cp 2);
  (match Serve_checkpoint.Chain.fallback ~graph cp with
  | Error m ->
      Alcotest.(check bool) "names the chain" true
        (Test_util.contains m "no verifiable checkpoint")
  | Ok _ -> Alcotest.fail "no generation should verify");
  remove_chain cp;
  Sys.rmdir dir

(* ------------------------------------------------------------------ *)
(* Golden digests                                                      *)

(* The single-controller serving path's decisions, pinned: a change to
   the serving driver that moves one decision fails here rather than
   in a downstream audit. Each run ticks, drains to quiescence and
   reports [Serve.digest]; the faulted runs assert faults really fired
   so the pin covers the injector path. *)

let golden_spec =
  Serve_source.Synthetic
    {
      seed = 21;
      rate_per_tick = 1.5;
      flows_per_event = 4;
      tenants = [ "a"; "b" ];
      first_event_id = 1;
      first_flow_id = 1_000_000;
    }

let golden_churn =
  {
    Serve.churn_seed = 13;
    churn_target = 0.85;
    churn_max_per_round = 200;
    churn_first_id = 10_000_000;
  }

let golden_injector topology =
  let config =
    {
      Fault_model.default_config with
      Fault_model.rate_per_s = 4.0;
      horizon_s = 1.5;
    }
  in
  Injector.create (Fault_model.generate ~config ~seed:9 topology)

let golden_serve ?(faults = false) ?telemetry ?(config = cfg ()) ~ticks () =
  let s = scenario () in
  let injector =
    if faults then Some (golden_injector s.Scenario.topology) else None
  in
  let t =
    fabric_create ?injector ?telemetry config ~topology:s.Scenario.topology
      ~net:s.Scenario.net ~source_spec:golden_spec
  in
  Serve.run ~ticks t;
  Serve.complete t;
  let d = Serve.digest t in
  ignore (Serve.retire t : Engine.run_result);
  (match injector with
  | Some inj ->
      Alcotest.(check bool) "faults fired" true
        ((Recovery.stats (Injector.recovery inj)).Recovery.faults_applied > 0)
  | None -> ());
  d

(* Checkpoint every 8 ticks over 27 journaled ticks, restore the newest
   generation, replay the journal suffix, serve 5 more ticks live. *)
let golden_restore_continuation () =
  let dir = temp_dir () in
  let cp = Filename.concat dir "cp.json" in
  let jp = Filename.concat dir "journal.wal" in
  Fun.protect
    ~finally:(fun () ->
      remove_chain cp;
      remove_segments jp;
      rm_rf dir)
    (fun () ->
      let s = scenario () in
      let config = cfg ~churn:golden_churn () in
      let w = Journal.open_writer jp in
      let t =
        Serve.create ~journal:w config ~topology:s.Scenario.topology
          ~net:s.Scenario.net ~source_spec:golden_spec
      in
      Shard_fabric.run ~checkpoint_path:cp ~checkpoint_every:8 t ~ticks:27;
      Obs.Store.close w;
      match
        Serve.restore ~config ~source_spec:golden_spec
          ~topology:s.Scenario.topology cp
      with
      | Error m -> Alcotest.fail m
      | Ok t2 ->
          (match Serve.replay ~journal:jp t2 with
          | Error m -> Alcotest.fail m
          | Ok n -> Alcotest.(check int) "journal suffix replayed" 3 n);
          Serve.run ~ticks:5 t2;
          Serve.complete t2;
          let d = Serve.digest t2 in
          ignore (Serve.retire t2 : Engine.run_result);
          d)

(* Watchdog over a churned, faulted run: the decision digest and the
   alert journal's digest. 45 ticks, because over 30 the watchdog's
   fixed bank raises no alert on this run. *)
let golden_watch_alerts () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let tel = watch_telemetry (Some dir) in
      let d =
        golden_serve ~faults:true ~telemetry:tel
          ~config:(cfg ~churn:golden_churn ())
          ~ticks:45 ()
      in
      let w = Option.get (Serve_telemetry.watch tel) in
      Alcotest.(check bool) "alerts fired" true (Obs.Watch.alert_total w > 0);
      (d, Obs.Watch.alert_digest w))

(* Storage bytes, pinned: the WAL's file bytes, and the records of the
   watch, alert and lifecycle logs, of fixed one-shard runs. A change to
   how records reach disk that moves one WAL byte or one record payload
   fails here. *)

let file_hash paths =
  List.fold_left
    (fun h p -> Obs.Fnv.string h (In_channel.with_open_bin p In_channel.input_all))
    Obs.Fnv.basis paths
  |> Obs.Fnv.hex

(* Every record of a log, in write order. *)
let log_records path =
  match Obs.Store.read_report ~decode:Result.ok path with
  | Ok { Obs.Store.entries; corrupt = []; _ } -> entries
  | Ok _ -> Alcotest.failf "%s: damaged" path
  | Error m -> Alcotest.fail m

let records_hash paths =
  List.fold_left
    (fun h p ->
      List.fold_left
        (fun h r -> Obs.Fnv.string (Obs.Fnv.string h r) "\n")
        h (log_records p))
    Obs.Fnv.basis paths
  |> Obs.Fnv.hex

let golden_wal_bytes () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let s = scenario () in
      let jp = Filename.concat dir "journal.wal" in
      let w = Journal.open_writer jp in
      let t =
        Serve.create ~journal:w (cfg ~churn:golden_churn ())
          ~topology:s.Scenario.topology ~net:s.Scenario.net
          ~source_spec:golden_spec
      in
      Serve.run ~ticks:30 t;
      Serve.complete t;
      ignore (Serve.retire t : Engine.run_result);
      Obs.Store.close w;
      file_hash [ jp ])

let golden_watch_records () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let lifecycle = Filename.concat dir "lifecycle.jsonl" in
      let tel =
        Serve_telemetry.create
          {
            Serve_telemetry.default_config with
            Serve_telemetry.metrics_dir = Some dir;
            watch = Some { Obs.Watch.dir = Some dir };
          }
      in
      ignore
        (golden_serve ~faults:true ~telemetry:tel
           ~config:(cfg ~churn:golden_churn ())
           ~ticks:45 ()
          : string);
      records_hash
        [
          Filename.concat dir "watch.jsonl";
          Filename.concat dir "alerts.jsonl";
          lifecycle;
        ])

let test_serve_golden_storage () =
  Alcotest.(check string) "WAL bytes" "8412f89f03a485ea" (golden_wal_bytes ());
  Alcotest.(check string) "watch, alert and lifecycle records" "ca4a25abb53d3be5"
    (golden_watch_records ())

(* Live fairness equals the lifecycle fold: [experiments telemetry]
   rebuilds the per-tenant table with [Fairness.of_log], a fresh
   tracker fed every logged entry, so its JSON must equal the live
   tracker's. The run is one churned, faulted
   serve with a 2-slot queue and one round per tick, restored
   mid-flight from its own checkpoint with telemetry attached. It has
   all three cases the fold must agree on, and the test asserts each:
   the full queue defers arrivals; events in flight at the checkpoint complete
   with no attribution (logged as tenant [""], accounted to
   "unknown"); and one of those degrades (the golden fault schedule
   degrades none after the restore, hence the denser one here). *)
let test_serve_fairness_equals_lifecycle_fold () =
  let dir = temp_dir () in
  let cp = Filename.concat dir "cp.json" in
  let jp = Filename.concat dir "journal.wal" in
  Fun.protect
    ~finally:(fun () ->
      remove_chain cp;
      remove_segments jp;
      rm_rf dir)
    (fun () ->
      let config =
        {
          (cfg ~capacity:2 ~churn:golden_churn ())
          with
          Serve.steps_per_tick = 1;
        }
      in
      let s = scenario () in
      let injector =
        Injector.create
          (Fault_model.generate
             ~config:
               {
                 Fault_model.default_config with
                 Fault_model.rate_per_s = 16.0;
                 horizon_s = 2.0;
               }
             ~seed:1 s.Scenario.topology)
      in
      let w = Journal.open_writer jp in
      let t =
        fabric_create ~injector ~journal:w config
          ~topology:s.Scenario.topology ~net:s.Scenario.net
          ~source_spec:golden_spec
      in
      Shard_fabric.run ~checkpoint_path:cp ~checkpoint_every:8 t ~ticks:20;
      Obs.Store.close w;
      let tel =
        Serve_telemetry.create
          {
            Serve_telemetry.default_config with
            Serve_telemetry.metrics_dir = Some dir;
          }
      in
      (match
         Shard_fabric.recover ~telemetry:tel
           (Shard_fabric.default_config config ~shards:1)
           ~topology:s.Scenario.topology ~source_spec:golden_spec
           ~checkpoint_path:cp ~journal_base:jp
       with
      | Error m -> Alcotest.fail m
      | Ok (t2, _) ->
          Serve.run ~ticks:20 t2;
          Serve.complete t2;
          ignore (Serve.retire t2 : Engine.run_result));
      let live =
        match Obs.Json.member "fairness" (Serve_telemetry.to_json tel) with
        | Some j -> Obs.Json.to_string j
        | None -> Alcotest.fail "no fairness block"
      in
      let entries =
        match Obs.Lifecycle.read_log (Filename.concat dir "lifecycle.jsonl") with
        | Ok { Obs.Store.entries; corrupt = []; _ } -> entries
        | Ok _ -> Alcotest.fail "lifecycle log damaged"
        | Error m -> Alcotest.fail m
      in
      let f = Obs.Fairness.of_log entries in
      let total field =
        List.fold_left (fun n v -> n + field v) 0 (Obs.Fairness.view f)
      in
      Alcotest.(check bool) "the full queue deferred arrivals" true
        (List.exists
           (fun (e : Obs.Lifecycle.entry) -> e.Obs.Lifecycle.stage = Deferred)
           entries);
      Alcotest.(check bool) "a completion degraded" true
        (total (fun v -> v.Obs.Fairness.v_degraded) > 0);
      Alcotest.(check bool) "a completion logged without attribution" true
        (List.exists
           (fun (e : Obs.Lifecycle.entry) ->
             e.Obs.Lifecycle.tenant = ""
             &&
             match e.Obs.Lifecycle.stage with
             | Completed _ | Degraded _ -> true
             | _ -> false)
           entries);
      Alcotest.(check string)
        "live fairness = fold of the log" live
        (Obs.Json.to_string (Obs.Fairness.to_json f)))

(* Checkpoint bytes, pinned: the FNV of [Checkpoint.to_string] for a
   churned, faulted one-shard run whose admission queue and deferred
   list are both non-empty at the snapshot. A codec change that moves
   one byte of any section fails here. *)
let golden_checkpoint_bytes () =
  let s = scenario () in
  let injector = golden_injector s.Scenario.topology in
  let t =
    fabric_create ~injector
      (cfg ~capacity:4 ~churn:golden_churn ())
      ~topology:s.Scenario.topology ~net:s.Scenario.net
      ~source_spec:
        (Serve_source.Synthetic
           {
             seed = 21;
             rate_per_tick = 6.0;
             flows_per_event = 2;
             tenants = [ "a"; "b"; "c" ];
             first_event_id = 1;
             first_flow_id = 1_000_000;
           })
  in
  Serve.run ~ticks:20 t;
  let cp = Shard_fabric.snapshot t in
  let sh = List.hd cp.Serve_checkpoint.shards in
  Alcotest.(check bool) "injector frozen" true
    (cp.Serve_checkpoint.injector <> None);
  Alcotest.(check bool) "admission queue non-empty" true
    (List.exists
       (fun (_, entries) -> entries <> [])
       sh.Serve_checkpoint.admission.Admission.fz_queues);
  Alcotest.(check bool) "deferred non-empty" true
    (sh.Serve_checkpoint.deferred <> []);
  Alcotest.(check bool) "churn departures frozen" true
    (sh.Serve_checkpoint.stepper.Engine.Stepper.fz_expiry <> []);
  let bytes = Serve_checkpoint.to_string cp in
  ignore (Serve.retire t : Engine.run_result);
  Obs.Fnv.string_hex bytes

let test_serve_golden_checkpoint () =
  Alcotest.(check string) "checkpoint bytes" "fd773875cbcc6483" (golden_checkpoint_bytes ())

let test_serve_golden_digests () =
  let check name expected actual = Alcotest.(check string) name expected actual in
  check "plain" "fc37a615883488ce" (golden_serve ~ticks:30 ());
  check "churn" "f153f0851ecdae9b"
    (golden_serve ~config:(cfg ~churn:golden_churn ()) ~ticks:30 ());
  check "injector with faults" "62792b5511237942"
    (golden_serve ~faults:true ~ticks:30 ());
  check "domains 2" "f153f0851ecdae9b"
    (golden_serve ~config:(cfg ~churn:golden_churn ~domains:2 ()) ~ticks:30 ());
  check "checkpoint, restore, replay, continue" "16ecb5b77764262a"
    (golden_restore_continuation ());
  let d, alerts = golden_watch_alerts () in
  check "watch + faults decisions" "7289bd1ce283e0e3" d;
  check "watch + faults alert digest" "1bd8087b4bb3fe1e" alerts

(* ------------------------------------------------------------------ *)
(* Supervisor: crash storms must change nothing about the decisions    *)

let storm_dir () =
  let dir = Filename.temp_file "nu_storm" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  dir

let cleanup_storm_dir dir =
  remove_segments (Filename.concat dir "journal.wal");
  remove_chain (Filename.concat dir "cp.json");
  Sys.rmdir dir

(* A storm in [dir], with any previous run's store swept first. *)
let run_storm ~dir ~fault_seed ~ticks () =
  let s = scenario () in
  remove_segments (Filename.concat dir "journal.wal");
  remove_chain (Filename.concat dir "cp.json");
  let fault =
    Store_fault.create
      (Store_fault.generate
         ~config:
           { Store_fault.n_faults = 8; ops_span = 90 }
         ~seed:fault_seed ())
  in
  Supervisor.run ~fault ~jitter_seed:7 ~serve_config:(cfg ())
    ~source_spec:(spec_of ()) ~topology:s.Scenario.topology
    ~fresh_net:(fun () -> (scenario ()).Scenario.net)
    ~journal_path:(Filename.concat dir "journal.wal")
    ~checkpoint_path:(Filename.concat dir "cp.json")
    ~ticks ()

let test_supervisor_storm_digest_differential () =
  let expected = serve_uninterrupted ~ticks:20 () in
  let dir = storm_dir () and dir2 = storm_dir () in
  List.iter
    (fun fault_seed ->
      let o = run_storm ~dir ~fault_seed ~ticks:20 () in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d survives" fault_seed)
        false o.Supervisor.gave_up;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d actually crashed" fault_seed)
        true
        (o.Supervisor.restarts > 0);
      Alcotest.(check (option string))
        (Printf.sprintf "seed %d digest equals uninterrupted" fault_seed)
        (Some expected) o.Supervisor.digest;
      (* Replaying the identical storm — in another directory, so
         failure reasons quote other paths — reproduces the identical
         supervision history, bit for bit. *)
      let o2 = run_storm ~dir:dir2 ~fault_seed ~ticks:20 () in
      Alcotest.(check string)
        (Printf.sprintf "seed %d storm is deterministic" fault_seed)
        o.Supervisor.recovery_digest o2.Supervisor.recovery_digest;
      Alcotest.(check int)
        (Printf.sprintf "seed %d restart count is deterministic" fault_seed)
        o.Supervisor.restarts o2.Supervisor.restarts)
    [ 5; 6 ];
  cleanup_storm_dir dir;
  cleanup_storm_dir dir2

let test_supervisor_cold_start () =
  let expected = serve_uninterrupted ~ticks:20 () in
  (* One kill before the first checkpoint exists: recovery finds no
     verifiable generation and must cold-start from segment 0. *)
  let s = scenario () in
  let dir = storm_dir () in
  let fault =
    Store_fault.create
      [ { Store_fault.at_op = 12; kind = Store_fault.Kill; knob = 0.3 } ]
  in
  let outcome =
    Supervisor.run ~fault ~jitter_seed:3 ~serve_config:(cfg ())
      ~source_spec:(spec_of ()) ~topology:s.Scenario.topology
      ~fresh_net:(fun () -> (scenario ()).Scenario.net)
      ~journal_path:(Filename.concat dir "journal.wal")
      ~checkpoint_path:(Filename.concat dir "cp.json")
      ~ticks:20 ()
  in
  cleanup_storm_dir dir;
  Alcotest.(check bool) "took the cold-start path" true
    (List.exists
       (function Supervisor.Cold_start _ -> true | _ -> false)
       outcome.Supervisor.events);
  Alcotest.(check (option string)) "digest equals uninterrupted"
    (Some expected) outcome.Supervisor.digest

(* ------------------------------------------------------------------ *)
(* Checkpoint format v4: refusals, float columns, chain, reproducible  *)
(* bytes                                                               *)

let v4_header ~version ~seq ~hash =
  Printf.sprintf
    {|{"format":"nu_serve_checkpoint","version":%d,"seq":%d,"hash":"%s"}|}
    version seq hash

let test_checkpoint_refusals () =
  let s = scenario () in
  let graph = s.Scenario.topology.Topology.graph in
  let t =
    Serve.create (cfg ()) ~topology:s.Scenario.topology ~net:s.Scenario.net
      ~source_spec:(spec_of ())
  in
  Serve.run ~ticks:6 t;
  let bytes = Serve_checkpoint.to_string (Shard_fabric.snapshot t) in
  let _, core = checkpoint_lines bytes in
  let hash = Obs.Fnv.string_hex core in
  let file header = String.concat "\n" [ header; core; "" ] in
  Alcotest.(check string) "header rebuilt faithfully" bytes
    (file (v4_header ~version:4 ~seq:0 ~hash));
  let refused name data needle =
    match Serve_checkpoint.of_string ~graph data with
    | Error m ->
        if not (Test_util.contains m needle) then
          Alcotest.failf "%s: error %S does not name %S" name m needle
    | Ok _ -> Alcotest.failf "%s: must be refused" name
  in
  refused "version 3" (file (v4_header ~version:3 ~seq:0 ~hash)) "version 3";
  refused "no header line" (core ^ "\n") "header";
  refused "header seq disagrees" (file (v4_header ~version:4 ~seq:1 ~hash)) "seq";
  refused "no line break" core "header"

(* Encodings of -0., the smallest and largest subnormals, both
   infinities and NaNs with payloads, besides whatever QCheck draws. *)
let special_bits =
  [
    0x8000000000000000L;
    0x0000000000000001L;
    0x000fffffffffffffL;
    0x7ff0000000000000L;
    0xfff0000000000000L;
    0x7ff0000000000001L;
    0xfff8000000000abcL;
  ]

(* The column's string contents: what [add_float_column] prints, less
   the quotes, is what [float_column_of_string] reads. *)
let float_column bits =
  let a = Array.of_list (List.map Int64.float_of_bits bits) in
  let buf = Buffer.create 64 in
  Serve_codec.add_float_column buf a;
  match Obs.Json.of_string (Buffer.contents buf) with
  | Ok (Obs.Json.String s) -> s
  | _ -> Alcotest.fail "a float column is a JSON string"

(* Decode a whole string as one float column. *)
let decode_column ~n s =
  Serve_codec.float_column_of_string ~n ~pos:0 ~len:(String.length s) s

let prop_float_column_roundtrip =
  QCheck.Test.make ~name:"float column round-trips any bit pattern" ~count:300
    QCheck.(list int64)
    (fun drawn ->
      let bits = special_bits @ drawn in
      let n = List.length bits in
      match decode_column ~n (float_column bits) with
      | Ok a -> List.map Int64.bits_of_float (Array.to_list a) = bits
      | Error _ -> false)

(* Damage a valid column one way or another: the decode returns Ok
   exactly when the damage left [n] lowercase-hex values, and never
   raises. *)
let prop_float_column_damage =
  let is_hex c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') in
  QCheck.Test.make ~name:"float column decode refuses damage, never raises"
    ~count:500
    QCheck.(quad (list int64) (int_bound 4) small_nat char)
    (fun (drawn, how, pos, c) ->
      let bits = special_bits @ drawn in
      let n = List.length bits in
      let s = float_column bits in
      let n', s', ok =
        match how with
        | 0 -> (n + 1, s, false)
        | 1 -> (n - 1, s, false)
        | 2 -> (n, String.sub s 0 (String.length s - 1), false)
        | 3 -> (n, s ^ "0", false)
        | _ ->
            let b = Bytes.of_string s in
            Bytes.set b (pos mod Bytes.length b) c;
            (n, Bytes.to_string b, is_hex c)
      in
      match decode_column ~n:n' s' with
      | Ok a -> ok && Array.length a = n
      | Error _ -> not ok
      | exception _ -> false)

(* Damage a core, then re-hash it so the hash check passes: the decoder
   alone must stand between the bytes and a restore. It returns [Ok] or
   [Error], never raises, and whatever it accepts re-encodes to bytes
   that decode to the same checkpoint. *)
let damage_base =
  lazy
    (let s = scenario () in
     let t =
       fabric_create
         ~injector:(golden_injector s.Scenario.topology)
         (cfg ~capacity:4 ~churn:golden_churn ())
         ~topology:s.Scenario.topology ~net:s.Scenario.net
         ~source_spec:golden_spec
     in
     Serve.run ~ticks:8 t;
     let bytes = Serve_checkpoint.to_string (Shard_fabric.snapshot t) in
     ignore (Serve.retire t : Engine.run_result);
     (s.Scenario.topology.Topology.graph, snd (checkpoint_lines bytes)))

let damage_alphabet = "{}[]:,\"\\-+.eE0123456789abcdeftrulnx \n"

let damage core (how, pos, len, ch) =
  let n = String.length core in
  let pos = (pos land max_int) mod n in
  let len = 1 + (len mod 64) in
  let ch = damage_alphabet.[ch mod String.length damage_alphabet] in
  match how mod 4 with
  | 0 -> String.mapi (fun i c -> if i = pos then ch else c) core
  | 1 -> String.sub core 0 pos ^ String.sub core (min n (pos + len)) (n - min n (pos + len))
  | 2 ->
      let l = min len (n - pos) in
      String.sub core 0 pos ^ String.sub core pos l ^ String.sub core pos (n - pos)
  | _ -> String.sub core 0 pos ^ String.make 1 ch ^ String.sub core pos (n - pos)

let rehashed core =
  v4_header ~version:4 ~seq:0 ~hash:(Obs.Fnv.string_hex core) ^ "\n" ^ core ^ "\n"

let prop_checkpoint_damage =
  QCheck.Test.make ~name:"damaged, re-hashed checkpoint: Ok or Error, never raises"
    ~count:400
    QCheck.(list_of_size Gen.(1 -- 3) (quad small_nat int small_nat small_nat))
    (fun damages ->
      let graph, core = Lazy.force damage_base in
      let core = List.fold_left damage core damages in
      match Serve_checkpoint.of_string ~graph (rehashed core) with
      | Error _ -> true
      | Ok cp -> (
          let bytes = Serve_checkpoint.to_string cp in
          match Serve_checkpoint.of_string ~graph bytes with
          | Ok cp' -> Serve_checkpoint.to_string cp' = bytes && compare cp cp' = 0
          | Error m -> QCheck.Test.fail_reportf "re-encoded bytes refused: %s" m)
      | exception e ->
          QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

(* A decimal that overflows a double would decode to an infinity, which
   the printer writes as null and no load accepts: the decoder refuses
   it rather than hand back a checkpoint it could not write. *)
let test_checkpoint_refuses_overflowing_decimal () =
  let graph, core = Lazy.force damage_base in
  let key = {|"residual":[|} in
  let at =
    let rec find i =
      if String.sub core i (String.length key) = key then i + String.length key
      else find (i + 1)
    in
    find 0
  in
  let stop = String.index_from core at ',' in
  let core =
    String.sub core 0 at ^ "1e999" ^ String.sub core stop (String.length core - stop)
  in
  match Serve_checkpoint.of_string ~graph (rehashed core) with
  | Error m -> Alcotest.(check bool) "names the number" true (Test_util.contains m "finite")
  | Ok _ -> Alcotest.fail "an infinite residual must not decode"

let test_checkpoint_chain_torn_newest () =
  let dir = temp_dir () in
  let cp = Filename.concat dir "cp.json" in
  let s = scenario () in
  let graph = s.Scenario.topology.Topology.graph in
  let t =
    Serve.create (cfg ()) ~topology:s.Scenario.topology ~net:s.Scenario.net
      ~source_spec:(spec_of ())
  in
  let save () =
    Serve.run ~ticks:3 t;
    ignore (Serve.save_checkpoint t cp : string)
  in
  save ();
  save ();
  save ();
  (* Tear the newest generation (seq 2, tick 9) halfway through its
     core: its header line survives, its core does not verify. *)
  let bytes = read_bytes cp in
  Out_channel.with_open_bin cp (fun oc ->
      output_string oc (String.sub bytes 0 (String.length bytes / 2)));
  (match Serve_checkpoint.Chain.fallback ~graph cp with
  | Error m -> Alcotest.fail m
  | Ok (c, depth) ->
      Alcotest.(check int) "fallback lands at depth 1" 1 depth;
      Alcotest.(check int) "on tick 6" 6 c.Serve_checkpoint.tick);
  (* The next save threads seq and parent from the torn file's header. *)
  let torn_hash = Obs.Fnv.string_hex (snd (checkpoint_lines bytes)) in
  save ();
  (match Serve_checkpoint.Chain.fallback ~graph cp with
  | Error m -> Alcotest.fail m
  | Ok (c, depth) ->
      Alcotest.(check int) "new newest verifies" 0 depth;
      Alcotest.(check int) "seq threaded past the torn generation" 3
        c.Serve_checkpoint.seq;
      Alcotest.(check (option string)) "parent is the torn generation"
        (Some torn_hash) c.Serve_checkpoint.parent);
  remove_chain cp;
  Sys.rmdir dir

(* Checkpoint bytes are a function of the seed: two same-seed runs
   with churn write byte-identical files, and a load re-encodes to the
   same bytes. *)
let test_checkpoint_bytes_reproducible () =
  let run () =
    let dir = temp_dir () in
    let cp = Filename.concat dir "cp.json" in
    let s = scenario () in
    let t =
      Serve.create (cfg ~churn:golden_churn ()) ~topology:s.Scenario.topology
        ~net:s.Scenario.net ~source_spec:golden_spec
    in
    Serve.run ~ticks:20 t;
    ignore (Serve.save_checkpoint t cp : string);
    let bytes = read_bytes cp in
    remove_chain cp;
    Sys.rmdir dir;
    (s.Scenario.topology.Topology.graph, bytes)
  in
  let graph, a = run () in
  let _, b = run () in
  Alcotest.(check bool) "same-seed checkpoint files are identical" true (a = b);
  match Serve_checkpoint.of_string ~graph a with
  | Error m -> Alcotest.fail m
  | Ok cp ->
      Alcotest.(check bool) "churn departures were checkpointed" true
        (List.exists
           (fun sh -> sh.Serve_checkpoint.stepper.Engine.Stepper.fz_expiry <> [])
           cp.Serve_checkpoint.shards);
      Alcotest.(check bool) "load re-encodes to the same bytes" true
        (Serve_checkpoint.to_string cp = a)

(* ------------------------------------------------------------------ *)
(* JSONL command stream                                                *)

(* One command line per (tick, src, dst): an install event between two
   hosts of the k=4 test fabric (16 hosts), tenants alternating. *)
let stream_line i (tick, src, dst) =
  let flow =
    Flow_record.v ~id:(5000 + i) ~src ~dst ~size_mbit:5.0 ~duration_s:1.0
      ~arrival_s:0.0
  in
  let ev =
    {
      Event.id = 1 + i;
      arrival_s = 0.0;
      kind = Event.Additions;
      work = [ Event.Install flow ];
    }
  in
  let r = Serve_request.v ~tenant:(if i mod 2 = 0 then "a" else "b") ev in
  match Serve_codec.request_to_json r with
  | Obs.Json.Obj fields ->
      Obs.Json.to_string (Obs.Json.Obj (("tick", Obs.Json.Int tick) :: fields))
  | _ -> Alcotest.fail "request is not an object"

let write_stream dir name lines =
  let path = Filename.concat dir name in
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) lines);
  path

(* 24 commands over ticks 0..15, two on every third tick. *)
let stream_commands =
  List.init 24 (fun i -> (i * 2 / 3, i * 5 mod 16, ((i * 7) + 3) mod 16))

let refused_stream ~needles path =
  match Serve_source.create ~host_count:16 (Serve_source.Stream path) with
  | exception Invalid_argument m ->
      List.iter
        (fun needle ->
          if not (Test_util.contains m needle) then
            Alcotest.failf "error %S does not name %S" m needle)
        needles
  | _ -> Alcotest.failf "%s must be refused" path

(* A command whose flow leaves the fabric is refused when the file is
   loaded, naming the file and line, before any tick could serve the
   commands ahead of it. *)
let test_stream_refuses_bad_host () =
  let dir = temp_dir () in
  let good = [ stream_line 0 (0, 1, 2) ] in
  let bad_src =
    write_stream dir "src.jsonl" (good @ [ stream_line 1 (3, 16, 2) ])
  in
  let bad_dst =
    write_stream dir "dst.jsonl" (good @ [ stream_line 1 (3, 1, 99) ])
  in
  refused_stream bad_src
    ~needles:[ bad_src ^ ":2:"; "src host 16 outside [0, 16)" ];
  refused_stream bad_dst
    ~needles:[ bad_dst ^ ":2:"; "dst host 99 outside [0, 16)" ];
  rm_rf dir

(* Serve a command stream with a journal and a checkpoint part-way
   through, restore the newest checkpoint, replay the journal suffix
   and keep serving: the stream cursor round-trips through the
   checkpoint, so the digest is the uninterrupted run's. A file whose
   ticks go backwards is refused. *)
let test_stream_checkpoint_replay () =
  let dir = temp_dir () in
  let spec =
    Serve_source.Stream
      (write_stream dir "cmds.jsonl" (List.mapi stream_line stream_commands))
  in
  let topology = (scenario ()).Scenario.topology in
  let fresh ?journal () =
    let s = scenario () in
    Serve.create ?journal (cfg ()) ~topology:s.Scenario.topology
      ~net:s.Scenario.net ~source_spec:spec
  in
  let plain = fresh () in
  Serve.run ~ticks:20 plain;
  Serve.complete plain;
  Alcotest.(check int) "every command served" 24 (Shard_fabric.completed plain);
  let cp = Filename.concat dir "cp.json" in
  let jp = Filename.concat dir "wal" in
  let w = Journal.open_writer jp in
  let t = fresh ~journal:w () in
  Shard_fabric.run ~checkpoint_path:cp ~checkpoint_every:6 t ~ticks:14;
  Obs.Store.close w;
  (match Serve.restore ~config:(cfg ()) ~source_spec:spec ~topology cp with
  | Error m -> Alcotest.fail m
  | Ok t2 ->
      Alcotest.(check int) "restored at the last checkpoint" 12
        (Serve.tick_count t2);
      (match (Shard_fabric.snapshot t2).Serve_checkpoint.source with
      | Serve_source.F_stream { pos } ->
          Alcotest.(check int) "cursor past the ticks before 12" 18 pos
      | Serve_source.F_synthetic _ -> Alcotest.fail "not a stream cursor");
      (match Serve.replay ~journal:jp t2 with
      | Error m -> Alcotest.fail m
      | Ok n -> Alcotest.(check int) "re-drove the journal suffix" 2 n);
      Serve.run ~ticks:6 t2;
      Serve.complete t2;
      Alcotest.(check string) "digest equal" (Serve.digest plain)
        (Serve.digest t2));
  let backwards =
    write_stream dir "backwards.jsonl"
      [ stream_line 0 (3, 0, 1); stream_line 1 (1, 2, 3) ]
  in
  refused_stream backwards ~needles:[ "tick-sorted" ];
  rm_rf dir

let suite =
  [
    ("admission block defers", `Quick, test_admission_block);
    ("admission fair drain", `Quick, test_admission_fair_drain);
    ("admission freeze/thaw", `Quick, test_admission_freeze_thaw);
    ("journal round-trip", `Quick, test_journal_roundtrip);
    ("journal committed ticks", `Quick, test_journal_committed_ticks);
    ( "journal truncation at every offset",
      `Quick,
      test_journal_truncation_every_offset );
    QCheck_alcotest.to_alcotest prop_journal_bit_flip;
    ( "telemetry and watch create a nested metrics dir",
      `Quick,
      test_serve_telemetry_nested_dir );
    ( "journal segment rotation + append",
      `Quick,
      test_journal_segment_rotation_and_append );
    ("source deterministic", `Quick, test_source_deterministic);
    ("source freeze/thaw", `Quick, test_source_freeze_thaw);
    ("net freeze/thaw", `Quick, test_net_freeze_thaw);
    ("stepper equals batch", `Quick, test_stepper_equals_batch);
    ("stepper freeze/thaw mid-run", `Quick, test_stepper_freeze_thaw_mid_run);
    ( "checkpoint/restore digest differential",
      `Quick,
      test_serve_checkpoint_restore_differential );
    ( "crash recovery under faults",
      `Quick,
      test_serve_crash_recovery_under_faults );
    ( "restore rejects config mismatch",
      `Quick,
      test_serve_restore_rejects_config_mismatch );
    ( "checkpoint json round-trip",
      `Quick,
      test_serve_checkpoint_json_roundtrip );
    ( "telemetry digest differential",
      `Quick,
      test_serve_telemetry_digest_differential );
    ( "watch digest differential",
      `Quick,
      test_serve_watch_digest_differential );
    QCheck_alcotest.to_alcotest prop_watch_replay_alert_digest;
    ( "checkpoint hash rejects mutation",
      `Quick,
      test_checkpoint_hash_rejects_mutation );
    ( "checkpoint chain rotation + fallback",
      `Quick,
      test_checkpoint_chain_rotation_and_fallback );
    ( "supervisor storm digest differential",
      `Quick,
      test_supervisor_storm_digest_differential );
    ("supervisor cold start", `Quick, test_supervisor_cold_start);
    ("golden digests", `Quick, test_serve_golden_digests);
    (* Kept at index 26: test reports print the index with the name,
       and a name with numbers in it is compared together with it. *)
    QCheck_alcotest.to_alcotest prop_watch_domains_alert_digest;
    ("golden storage bytes", `Quick, test_serve_golden_storage);
    ("golden checkpoint bytes", `Quick, test_serve_golden_checkpoint);
    ( "live fairness equals the lifecycle fold",
      `Quick,
      test_serve_fairness_equals_lifecycle_fold );
    ( "restore accepts a legacy cache flag",
      `Quick,
      test_serve_restore_accepts_cache_flag );
    ( "checkpoint refuses v3, no header, seq mismatch",
      `Quick,
      test_checkpoint_refusals );
    QCheck_alcotest.to_alcotest prop_float_column_roundtrip;
    QCheck_alcotest.to_alcotest prop_float_column_damage;
    QCheck_alcotest.to_alcotest prop_checkpoint_damage;
    ( "checkpoint refuses a decimal that overflows a double",
      `Quick,
      test_checkpoint_refuses_overflowing_decimal );
    ( "checkpoint chain threads seq past a torn newest",
      `Quick,
      test_checkpoint_chain_torn_newest );
    ( "same-seed runs write identical checkpoint bytes",
      `Quick,
      test_checkpoint_bytes_reproducible );
    ( "stream source refuses an out-of-range host",
      `Quick,
      test_stream_refuses_bad_host );
    ( "stream serve: checkpoint, restore, replay",
      `Quick,
      test_stream_checkpoint_replay );
    ("net thaw sizes rows from counts", `Quick, test_net_thaw_counts);
  ]
