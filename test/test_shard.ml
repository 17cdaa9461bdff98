(* The sharded fabric: partition map, weighted-fair apportion,
   coordinator journal, checkpoint chain and recovery.

   The load-bearing properties are differential: an N-shard fabric that
   loses a shard's WAL mid-run — or its newest checkpoint generation —
   must recover to the uninterrupted run's digest. (The one-shard fabric
   is Serve; test_serve.ml pins its digests.) *)

let dummy_flow ?(src = 0) ?dst id =
  let dst = match dst with Some d -> d | None -> (src + 1) mod 16 in
  Flow_record.v ~id ~src ~dst ~size_mbit:1.0 ~duration_s:1.0 ~arrival_s:0.0

let install_event ~src id =
  {
    Event.id;
    arrival_s = 0.0;
    kind = Event.Additions;
    work = [ Event.Install (dummy_flow ~src (100 + id)) ];
  }

let reroute_event ~flow_id id =
  {
    Event.id;
    arrival_s = 0.0;
    kind = Event.Switch_upgrade 0;
    work = [ Event.Reroute { flow_id; avoid = Event.Unconstrained } ];
  }

(* ------------------------------------------------------------------ *)
(* Partition map                                                       *)

let test_partition_shape () =
  let p = Shard_partition.create ~host_count:16 ~regions:8 ~shards:4 in
  Alcotest.(check int) "regions" 8
    (1 + Shard_partition.region_of_host p 15);
  (* Every shard owns at least one region. *)
  let owners = List.init 8 (Shard_partition.shard_of_region p) in
  for k = 0 to 3 do
    Alcotest.(check bool) "owns >= 1" true (List.mem k owners)
  done;
  (* Contiguous balanced blocks: region r -> r * shards / regions. *)
  for r = 0 to 7 do
    Alcotest.(check int)
      (Printf.sprintf "region %d" r)
      (r * 4 / 8)
      (Shard_partition.shard_of_region p r)
  done

let prop_partition_total =
  QCheck.Test.make ~name:"routing is total: every event has one home"
    ~count:200
    QCheck.(triple (int_bound 15) (int_bound 1_000_000) bool)
    (fun (src, fid, reroute) ->
      let p = Shard_partition.create ~host_count:16 ~regions:8 ~shards:3 in
      let ev =
        if reroute then reroute_event ~flow_id:fid (1 + fid)
        else install_event ~src (1 + src)
      in
      let home = Shard_partition.home_of_event p ev in
      home >= 0 && home < 3)

let prop_partition_order_independent =
  QCheck.Test.make
    ~name:"routing is order-independent: any query order, same homes"
    ~count:100
    QCheck.(small_list (int_bound 15))
    (fun srcs ->
      let events = List.mapi (fun i s -> install_event ~src:s (1 + i)) srcs in
      let p = Shard_partition.create ~host_count:16 ~regions:8 ~shards:4 in
      let forward = List.map (Shard_partition.home_of_event p) events in
      let backward =
        List.rev (List.map (Shard_partition.home_of_event p) (List.rev events))
      in
      forward = backward)

(* The map is a function of its three sizes alone: a shape it cannot
   split, or a host outside the fabric, is refused rather than routed. *)
let test_partition_refuses_bad_shape () =
  let refused what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: must raise Invalid_argument" what
  in
  let create ~host_count ~regions ~shards () =
    ignore (Shard_partition.create ~host_count ~regions ~shards)
  in
  refused "no shards" (create ~host_count:16 ~regions:8 ~shards:0);
  refused "fewer regions than shards" (create ~host_count:16 ~regions:2 ~shards:4);
  refused "fewer hosts than regions" (create ~host_count:4 ~regions:8 ~shards:4);
  let p = Shard_partition.create ~host_count:16 ~regions:8 ~shards:4 in
  refused "host past the fabric" (fun () ->
      ignore (Shard_partition.region_of_host p 16));
  refused "negative host" (fun () ->
      ignore (Shard_partition.region_of_host p (-1)));
  refused "region past the map" (fun () ->
      ignore (Shard_partition.shard_of_region p 8))

(* ------------------------------------------------------------------ *)
(* Weighted-fair apportion                                             *)

let prop_apportion_sum_and_cap =
  QCheck.Test.make
    ~name:"apportion: sum = min budget backlog, quota <= backlog" ~count:300
    QCheck.(pair (int_bound 64) (list_of_size Gen.(1 -- 8) (int_bound 40)))
    (fun (budget, backlogs) ->
      let backlogs = Array.of_list backlogs in
      let quota = Shard_fabric.apportion ~budget ~backlogs in
      let total_backlog = Array.fold_left ( + ) 0 backlogs in
      let total_quota = Array.fold_left ( + ) 0 quota in
      total_quota = min budget total_backlog
      && Array.for_all2 (fun q b -> q >= 0 && q <= b) quota backlogs)

let test_apportion_single_shard () =
  (* One shard: exactly the single-controller drain cap. *)
  Alcotest.(check (array int))
    "min budget backlog" [| 3 |]
    (Shard_fabric.apportion ~budget:3 ~backlogs:[| 7 |]);
  Alcotest.(check (array int))
    "backlog under budget" [| 2 |]
    (Shard_fabric.apportion ~budget:5 ~backlogs:[| 2 |])

let test_apportion_proportional () =
  (* 3:1 backlog split at budget 4 -> 3:1 quota split. *)
  Alcotest.(check (array int))
    "proportional" [| 3; 1 |]
    (Shard_fabric.apportion ~budget:4 ~backlogs:[| 9; 3 |])

(* ------------------------------------------------------------------ *)
(* Differential harness                                                *)

let scenario () = Scenario.prepare ~k:4 ~utilization:0.6 ~seed:11 ()

let cfg () =
  {
    Serve.policy = Policy.Plmtf { alpha = 2 };
    engine_seed = 5;
    admission_capacity = 8;
    admission_policy = Admission.Block;
    drain_per_tick = 2;
    steps_per_tick = 3;
    tick_dt_s = 0.05;
    churn = None;
    domains = 1;
  }

let spec_of ?(seed = 21) ?(rate = 0.7) () =
  Serve_source.Synthetic
    {
      seed;
      rate_per_tick = rate;
      flows_per_event = 2;
      tenants = [ "a"; "b" ];
      first_event_id = 1;
      first_flow_id = 1_000_000;
    }

(* [faults] builds the fabric's injector from its topology. *)
let fabric_digest ?journal_base ?(shards = 4) ?(base = cfg ()) ?rate ?faults
    ~ticks () =
  let s = scenario () in
  let fcfg = Shard_fabric.default_config base ~shards in
  let injector = Option.map (fun f -> f s.Scenario.topology) faults in
  let t =
    Shard_fabric.create ?injector ?journal_base fcfg
      ~topology:s.Scenario.topology ~net:s.Scenario.net
      ~source_spec:(spec_of ?rate ())
  in
  Shard_fabric.run t ~ticks;
  Shard_fabric.complete t;
  let d = Shard_fabric.digest t in
  ignore (Shard_fabric.retire t : Engine.run_result list);
  d

let test_fabric_deterministic () =
  Alcotest.(check string) "same run twice"
    (fabric_digest ~shards:4 ~ticks:40 ())
    (fabric_digest ~shards:4 ~ticks:40 ())

(* The fabric's probe fan-out: with [domains = 2] each wave's misses go
   through the shared worker pool, and the schedule must not move. *)
let test_fabric_fanout_digest () =
  let digest domains =
    fabric_digest ~shards:4 ~rate:3.0 ~ticks:40
      ~base:
        {
          (cfg ()) with
          Serve.drain_per_tick = 12;
          admission_capacity = 32;
          domains;
        }
      ()
  in
  let before = Obs.Counters.snapshot () in
  let fanned = digest 2 in
  let d = Obs.Counters.diff ~before ~after:(Obs.Counters.snapshot ()) in
  Alcotest.(check bool) "waves fanned out" true
    (Obs.Counters.value d Obs.Counters.Probe_parallel_batches > 0);
  Alcotest.(check string) "domains 1 = domains 2" (digest 1) fanned

(* ------------------------------------------------------------------ *)
(* Checkpoint / crash / replay                                         *)

let with_tmp_dir f =
  let dir = Filename.temp_file "nu_shard" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun e -> Sys.remove (Filename.concat dir e))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let test_checkpoint_json_roundtrip () =
  let expected = fabric_digest ~shards:4 ~ticks:36 () in
  let s = scenario () in
  let fcfg = Shard_fabric.default_config (cfg ()) ~shards:4 in
  let t =
    Shard_fabric.create fcfg ~topology:s.Scenario.topology ~net:s.Scenario.net
      ~source_spec:(spec_of ())
  in
  Shard_fabric.run t ~ticks:18;
  let bytes = Serve_checkpoint.to_string (Shard_fabric.snapshot t) in
  Shard_fabric.close t;
  let graph = s.Scenario.topology.Topology.graph in
  match Serve_checkpoint.of_string ~graph bytes with
  | Error m -> Alcotest.fail m
  | Ok cp -> (
      Alcotest.(check int) "tick survives" 18 cp.Serve_checkpoint.tick;
      match
        Shard_fabric.restore_snapshot fcfg ~topology:s.Scenario.topology
          ~source_spec:(spec_of ()) cp
      with
      | Error m -> Alcotest.fail m
      | Ok t2 ->
          Shard_fabric.run t2 ~ticks:18;
          Shard_fabric.complete t2;
          Alcotest.(check string) "digest equal" expected
            (Shard_fabric.digest t2);
          Shard_fabric.close t2)

(* Checkpoint file bytes with the core's top-level fields rewritten by
   [f] and the header hash taken over the new core — a checkpoint as
   another build would have written it. *)
let rewrite_core f bytes =
  let module J = Nu_obs.Json in
  let core =
    match String.split_on_char '\n' bytes with
    | [ _; core; "" ] -> core
    | _ -> Alcotest.fail "checkpoint file is not two newline-terminated lines"
  in
  let fields =
    match J.of_string core with
    | Ok (J.Obj fields) -> fields
    | _ -> Alcotest.fail "checkpoint core is not an object"
  in
  let core = J.to_string (J.Obj (f fields)) in
  let seq = match J.member "seq" (J.Obj fields) with Some (J.Int n) -> n | _ -> 0 in
  Printf.sprintf
    {|{"format":"nu_serve_checkpoint","version":4,"seq":%d,"hash":"%s"}|}
    seq (Nu_obs.Fnv.string_hex core)
  ^ "\n" ^ core ^ "\n"

(* A checkpoint as an older build wrote it: the retired [partition]
   section (assignment, per-region arrival counters, generation) put
   back before [coord]. *)
let with_parent_partition ~regions ~shards bytes =
  let module J = Nu_obs.Json in
  let section =
    J.Obj
      [
        ("assign", J.List (List.init regions (fun r -> J.Int (r * shards / regions))));
        ("arrivals", J.List (List.init regions (fun _ -> J.Int 0)));
        ("generation", J.Int 0);
      ]
  in
  rewrite_core
    (fun fields ->
      Alcotest.(check bool) "current core has no partition section" false
        (List.mem_assoc "partition" fields);
      List.concat_map
        (fun (k, v) ->
          if k = "coord" then [ ("partition", section); (k, v) ] else [ (k, v) ])
        fields)
    bytes

(* The partition map is rebuilt from the fingerprint on restore, so a
   checkpoint that still carries the retired section restores to the
   uninterrupted digest. *)
let test_restore_ignores_parent_partition () =
  let expected = fabric_digest ~shards:4 ~ticks:36 () in
  let s = scenario () in
  let fcfg = Shard_fabric.default_config (cfg ()) ~shards:4 in
  let t =
    Shard_fabric.create fcfg ~topology:s.Scenario.topology ~net:s.Scenario.net
      ~source_spec:(spec_of ())
  in
  Shard_fabric.run t ~ticks:18;
  let bytes =
    with_parent_partition ~regions:fcfg.Shard_fabric.regions ~shards:4
      (Serve_checkpoint.to_string (Shard_fabric.snapshot t))
  in
  Shard_fabric.close t;
  match
    Serve_checkpoint.of_string ~graph:s.Scenario.topology.Topology.graph bytes
  with
  | Error m -> Alcotest.failf "parent-style checkpoint refused: %s" m
  | Ok cp -> (
      match
        Shard_fabric.restore_snapshot fcfg ~topology:s.Scenario.topology
          ~source_spec:(spec_of ()) cp
      with
      | Error m -> Alcotest.fail m
      | Ok t2 ->
          Shard_fabric.run t2 ~ticks:18;
          Shard_fabric.complete t2;
          Alcotest.(check string) "digest equal" expected
            (Shard_fabric.digest t2);
          Shard_fabric.close t2)

let test_restore_rejects_config_mismatch () =
  let s = scenario () in
  let fcfg = Shard_fabric.default_config (cfg ()) ~shards:4 in
  let t =
    Shard_fabric.create fcfg ~topology:s.Scenario.topology ~net:s.Scenario.net
      ~source_spec:(spec_of ())
  in
  Shard_fabric.run t ~ticks:5;
  let cp = Shard_fabric.snapshot t in
  Shard_fabric.close t;
  let other = Shard_fabric.default_config (cfg ()) ~shards:2 in
  match
    Shard_fabric.restore_snapshot other ~topology:s.Scenario.topology
      ~source_spec:(spec_of ()) cp
  with
  | Error _ -> ()
  | Ok t2 ->
      Shard_fabric.close t2;
      Alcotest.fail "restore accepted a mismatched shard count"

(* The fingerprint of a build that still had the hot-shard rebalance
   and the co-scheduling budget and retry-delay knobs: [meta] with
   those fields put back, in their old places. *)
let legacy_meta ?(hot_factor = 2.0) ?(co_max = 0.0) ?(retry = 1) meta =
  let module J = Nu_obs.Json in
  let after key extra =
    List.concat_map (fun (k, v) -> if k = key then (k, v) :: extra else [ (k, v) ])
  in
  let in_section name f =
    List.map (function
      | k, J.Obj c when k = name -> (k, J.Obj (f c))
      | field -> field)
  in
  match meta with
  | J.Obj top ->
      J.Obj
        (top
        |> after "regions"
             [
               ("hot_factor", J.Float hot_factor);
               ("hot_ticks", J.Int 3);
               ("rebalance_min_load", J.Int 8);
             ]
        |> in_section "config"
             (after "tick_dt_s" [ ("co_max_cost_mbit", J.Float co_max) ])
        |> in_section "coord"
             (after "veto_backlog" [ ("retry_ticks", J.Int retry) ]))
  | j -> j

(* A checkpoint whose fingerprint carries the retired fields restores
   while they hold their old defaults, and is refused as a
   configuration mismatch otherwise. The meta goes through the file
   bytes, as a stored checkpoint's does. *)
let test_restore_retired_fingerprint_fields () =
  let s = scenario () in
  let graph = s.Scenario.topology.Topology.graph in
  let fcfg = Shard_fabric.default_config (cfg ()) ~shards:4 in
  let t =
    Shard_fabric.create fcfg ~topology:s.Scenario.topology ~net:s.Scenario.net
      ~source_spec:(spec_of ())
  in
  Shard_fabric.run t ~ticks:5;
  let cp = Shard_fabric.snapshot t in
  let expected = Shard_fabric.digest t in
  Shard_fabric.close t;
  let restore meta =
    match
      Serve_checkpoint.of_string ~graph
        (Serve_checkpoint.to_string { cp with Serve_checkpoint.meta })
    with
    | Error m -> Alcotest.fail m
    | Ok cp ->
        Shard_fabric.restore_snapshot fcfg ~topology:s.Scenario.topology
          ~source_spec:(spec_of ()) cp
  in
  (match restore (legacy_meta cp.Serve_checkpoint.meta) with
  | Error m -> Alcotest.failf "old defaults refused: %s" m
  | Ok t2 ->
      Alcotest.(check string) "restored digest" expected (Shard_fabric.digest t2);
      Shard_fabric.close t2);
  List.iter
    (fun (what, meta) ->
      match restore meta with
      | Error m ->
          Alcotest.(check bool)
            (what ^ ": configuration mismatch") true
            (String.starts_with ~prefix:"checkpoint configuration mismatch" m)
      | Ok t2 ->
          Shard_fabric.close t2;
          Alcotest.failf "restore accepted %s" what)
    [
      ("hot_factor 3.0", legacy_meta ~hot_factor:3.0 cp.Serve_checkpoint.meta);
      ("co_max_cost_mbit 5.0", legacy_meta ~co_max:5.0 cp.Serve_checkpoint.meta);
      ("retry_ticks 2", legacy_meta ~retry:2 cp.Serve_checkpoint.meta);
    ]

(* Kill one shard's WAL mid-run, recover the whole fabric from the
   checkpoint + journals, keep serving: the digest must equal the
   uninterrupted run's. *)
(* Checkpoint at tick 20, lose shard [kill]'s WAL at tick 30, recover
   (thawing the checkpoint's injector on [retry]) and serve to tick 40:
   the digest must be the uninterrupted run's. *)
let crash_recover ?faults ?retry ~shards ~kill () =
  with_tmp_dir @@ fun dir ->
  let jb = Filename.concat dir "wal" in
  let cp_path = Filename.concat dir "cp.json" in
  let expected = fabric_digest ?faults ~shards ~ticks:40 () in
  let s = scenario () in
  let fcfg = Shard_fabric.default_config (cfg ()) ~shards in
  let injector = Option.map (fun f -> f s.Scenario.topology) faults in
  let t =
    Shard_fabric.create ?injector ~journal_base:jb fcfg
      ~topology:s.Scenario.topology ~net:s.Scenario.net
      ~source_spec:(spec_of ())
  in
  Shard_fabric.run t ~ticks:20;
  Shard_fabric.save_checkpoint t ~path:cp_path;
  Shard_fabric.run t ~ticks:10;
  Shard_fabric.kill_shard_journal t kill;
  (* The crashed fabric is abandoned where it stands. *)
  match
    Shard_fabric.recover ?retry fcfg ~topology:s.Scenario.topology
      ~source_spec:(spec_of ()) ~checkpoint_path:cp_path ~journal_base:jb
  with
  | Error m -> Alcotest.fail m
  | Ok (t2, replayed) ->
      Alcotest.(check bool) "replayed beyond the checkpoint" true
        (replayed >= 0);
      Alcotest.(check bool) "recovered at or before the kill" true
        (Shard_fabric.tick_count t2 <= 30);
      Shard_fabric.run t2 ~ticks:(40 - Shard_fabric.tick_count t2);
      Shard_fabric.complete t2;
      Alcotest.(check string) "digest equal" expected
        (Shard_fabric.digest t2);
      Shard_fabric.close t2

(* A dense fault schedule over the 40 ticks (2 s simulated), so events
   abort and the retry budget decides between retrying and degrading. *)
let faults ?retry topology =
  let config =
    {
      Fault_model.default_config with
      Fault_model.rate_per_s = 8.0;
      horizon_s = 2.0;
    }
  in
  Injector.create ?retry (Fault_model.generate ~config ~seed:1 topology)

let test_crash_recover_differential () =
  crash_recover ~shards:4 ~kill:2 ();
  (* One faulted shard at a budget of one attempt: the checkpoint
     carries the injector's schedule and abort counts but not its
     policy, so recovery must be handed the budget again. *)
  let retry = { Retry_policy.default with Retry_policy.max_attempts = 1 } in
  Alcotest.(check bool) "the budget moves the faulted digest" true
    (fabric_digest ~shards:1 ~faults:(faults ~retry) ~ticks:40 ()
    <> fabric_digest ~shards:1 ~faults:(faults ?retry:None) ~ticks:40 ());
  crash_recover ~shards:1 ~kill:0 ~faults:(faults ~retry) ~retry ()

(* The fabric's checkpoints form a verified chain: damage the newest
   generation and recovery must fall back to its parent, replay the
   longer journal suffix, and still reach the uninterrupted digest. *)
let test_recover_chain_fallback () =
  with_tmp_dir @@ fun dir ->
  let jb = Filename.concat dir "wal" in
  let cp_path = Filename.concat dir "cp.json" in
  let expected = fabric_digest ~shards:4 ~ticks:40 () in
  let s = scenario () in
  let fcfg = Shard_fabric.default_config (cfg ()) ~shards:4 in
  let t =
    Shard_fabric.create ~journal_base:jb fcfg ~topology:s.Scenario.topology
      ~net:s.Scenario.net ~source_spec:(spec_of ())
  in
  Shard_fabric.run ~checkpoint_path:cp_path ~checkpoint_every:10 t ~ticks:30;
  Shard_fabric.kill_shard_journal t 1;
  Alcotest.(check (list int)) "three generations on disk" [ 0; 1; 2 ]
    (List.filter
       (fun i -> Sys.file_exists (Serve_checkpoint.Chain.gen_path cp_path i))
       [ 0; 1; 2; 3 ]);
  (* Flip a byte in the middle of the newest generation (tick 30). *)
  let data = In_channel.with_open_bin cp_path In_channel.input_all in
  let b = Bytes.of_string data in
  let mid = Bytes.length b / 2 in
  Bytes.set b mid (if Bytes.get b mid = 'X' then 'Y' else 'X');
  Out_channel.with_open_bin cp_path (fun oc -> Out_channel.output_bytes oc b);
  match
    Shard_fabric.recover fcfg ~topology:s.Scenario.topology
      ~source_spec:(spec_of ()) ~checkpoint_path:cp_path ~journal_base:jb
  with
  | Error m -> Alcotest.fail m
  | Ok (t2, replayed) ->
      Alcotest.(check int) "replayed from the parent generation (tick 20)" 10
        replayed;
      Alcotest.(check int) "recovered at the kill" 30
        (Shard_fabric.tick_count t2);
      Shard_fabric.run t2 ~ticks:10;
      Shard_fabric.complete t2;
      Alcotest.(check string) "digest equal" expected (Shard_fabric.digest t2);
      Shard_fabric.close t2

(* External audit: rebuild the fabric from its journals alone. *)
let test_replay_from_journals () =
  with_tmp_dir @@ fun dir ->
  let jb = Filename.concat dir "wal" in
  let expected = fabric_digest ~journal_base:jb ~shards:4 ~ticks:30 () in
  let s = scenario () in
  let fcfg = Shard_fabric.default_config (cfg ()) ~shards:4 in
  match
    Shard_fabric.replay fcfg ~topology:s.Scenario.topology
      ~net:s.Scenario.net ~source_spec:(spec_of ()) ~journal_base:jb
  with
  | Error m -> Alcotest.fail m
  | Ok (t, replayed) ->
      Alcotest.(check bool) "replayed ticks" true (replayed > 0);
      Shard_fabric.complete t;
      Alcotest.(check string) "digest equal" expected (Shard_fabric.digest t);
      Shard_fabric.close t

(* The coordinator journal is a record log like every other: an
   uninterrupted run's reads back undamaged, and its records (each with
   a newline) fold to the coordinator's digest. *)
let test_coord_journal_reads_back () =
  with_tmp_dir @@ fun dir ->
  let jb = Filename.concat dir "wal" in
  let s = scenario () in
  let fcfg =
    Shard_fabric.default_config ~shards:4
      { (cfg ()) with Serve.drain_per_tick = 12; admission_capacity = 32 }
  in
  let t =
    Shard_fabric.create ~journal_base:jb fcfg ~topology:s.Scenario.topology
      ~net:s.Scenario.net ~source_spec:(spec_of ~rate:3.0 ())
  in
  Shard_fabric.run t ~ticks:40;
  Shard_fabric.complete t;
  ignore (Shard_fabric.retire t : Engine.run_result list);
  let coord = Shard_fabric.coord t in
  match
    Obs.Store.read_report ~decode:Result.ok (jb ^ ".coord.jsonl")
  with
  | Error m -> Alcotest.fail m
  | Ok r ->
      Alcotest.(check int) "no damage" 0 (List.length r.Obs.Store.corrupt);
      Alcotest.(check int) "one record per decision"
        (Shard_coord.entries coord) r.Obs.Store.frames;
      Alcotest.(check string) "records fold to the coordinator digest"
        (Shard_coord.digest coord)
        (Obs.Fnv.hex
           (List.fold_left
              (fun h r -> Obs.Fnv.string (Obs.Fnv.string h r) "\n")
              Obs.Fnv.basis r.Obs.Store.entries))

(* ------------------------------------------------------------------ *)
(* Golden storage bytes                                                *)

(* A fixed 4-shard run with escalations: the shard WALs' file bytes and
   the coordinator journal's records, pinned. *)
(* The fabric checkpoint's bytes, pinned: four shards at a rate that
   keeps the coordinator busy, snapshotted mid-run. *)
let golden_fabric () =
  let s = scenario () in
  let fcfg =
    Shard_fabric.default_config ~shards:4
      { (cfg ()) with Serve.drain_per_tick = 12; admission_capacity = 32 }
  in
  let t =
    Shard_fabric.create fcfg ~topology:s.Scenario.topology ~net:s.Scenario.net
      ~source_spec:(spec_of ~rate:3.0 ())
  in
  Shard_fabric.run t ~ticks:30;
  let cp = Shard_fabric.snapshot t in
  Shard_fabric.close t;
  (s, fcfg, cp)

let test_golden_checkpoint () =
  let _, _, cp = golden_fabric () in
  Alcotest.(check int) "four shards frozen" 4
    (List.length cp.Serve_checkpoint.shards);
  Alcotest.(check string) "fabric checkpoint bytes" "808c1423745ee762"
    (Obs.Fnv.string_hex (Serve_checkpoint.to_string cp))

(* [golden_fabric]'s checkpoint bytes after a splice: [what]'s splice
   must change them, and restoring them must fail with an error that
   contains [needle]. *)
let check_refused (s, fcfg, _) ~bytes (what, spliced, needle) =
  Alcotest.(check bool) (what ^ ": the splice changed the bytes") true
    (spliced <> bytes);
  match
    Result.bind
      (Serve_checkpoint.of_string ~graph:s.Scenario.topology.Topology.graph
         spliced)
      (Shard_fabric.restore_snapshot fcfg ~topology:s.Scenario.topology
         ~source_spec:(spec_of ~rate:3.0 ()))
  with
  | Ok t ->
      Shard_fabric.close t;
      Alcotest.failf "%s: restored" what
  | Error m ->
      Alcotest.(check bool) (what ^ ": the error says why: " ^ m) true
        (Test_util.contains m needle)

(* The coordinator commits every escalation, so it has no retry queue
   and bills no planning of its own. A checkpoint whose [coord] section
   holds a queued retry or non-zero units (as a coordinator that could
   veto wrote it) is refused by name, not restored without its retry
   state. *)
let test_restore_refuses_coord_retry_state () =
  let module J = Nu_obs.Json in
  let ((_, _, cp) as golden) = golden_fabric () in
  let bytes = Serve_checkpoint.to_string cp in
  let queued =
    let req = Serve_request.v ~tenant:"a" (install_event ~src:0 900) in
    J.Obj
      [
        ("event", Option.get (J.member "event" (Serve_codec.request_to_json req)));
        ("home", J.Int 0);
        ("enq_tick", J.Int 29);
        ("attempts", J.Int 1);
        ("not_before", J.Int 30);
      ]
  in
  let with_coord key v =
    rewrite_core
      (List.map (function
        | "coord", J.Obj c ->
            ( "coord",
              J.Obj (List.map (fun (k, x) -> if k = key then (k, v) else (k, x)) c)
            )
        | field -> field))
      bytes
  in
  List.iter
    (check_refused golden ~bytes)
    [
      ("queued retry", with_coord "queue" (J.List [ queued ]), "coordinator retry state");
      ("units", with_coord "units" (J.Int 7), "coordinator retry state");
    ]

(* Admission only defers, so nothing sheds. A checkpoint whose
   admission stats count a shed request, as a shedding policy wrote it,
   is refused by name; one whose fingerprint names a shedding policy
   fails the fingerprint comparison and shows both configurations. *)
let test_restore_refuses_shedding () =
  let module J = Nu_obs.Json in
  let ((_, _, cp) as golden) = golden_fabric () in
  let bytes = Serve_checkpoint.to_string cp in
  let update key f = List.map (fun (k, v) -> if k = key then (k, f v) else (k, v)) in
  let obj f = function J.Obj fields -> J.Obj (f fields) | j -> j in
  let first f = function J.List (x :: rest) -> J.List (f x :: rest) | j -> j in
  let shed_one =
    rewrite_core
      (update "shards"
         (first
            (obj
               (update "admission"
                  (obj (update "stats" (first (obj (update "shed" (fun _ -> J.Int 1))))))))))
      bytes
  in
  let dropping_meta =
    rewrite_core
      (update "meta"
         (obj
            (update "config"
               (obj (update "admission_policy" (fun _ -> J.String "drop-newest"))))))
      bytes
  in
  Alcotest.(check bool) "a tenant's stats count one shed request" true
    (Test_util.contains shed_one {|"shed":1|});
  List.iter
    (check_refused golden ~bytes)
    [
      ("shed count", shed_one, "shedding policies");
      ("drop-newest fingerprint", dropping_meta, "\"drop-newest\"");
    ]

let test_golden_storage () =
  with_tmp_dir @@ fun dir ->
  let jb = Filename.concat dir "wal" in
  let s = scenario () in
  let fcfg =
    Shard_fabric.default_config ~shards:4
      { (cfg ()) with Serve.drain_per_tick = 12; admission_capacity = 32 }
  in
  let t =
    Shard_fabric.create ~journal_base:jb fcfg ~topology:s.Scenario.topology
      ~net:s.Scenario.net ~source_spec:(spec_of ~rate:3.0 ())
  in
  Shard_fabric.run t ~ticks:40;
  Shard_fabric.complete t;
  Alcotest.(check bool) "coordinator decided" true
    (Shard_coord.entries (Shard_fabric.coord t) > 0);
  ignore (Shard_fabric.retire t : Engine.run_result list);
  let wal_hash =
    List.fold_left
      (fun h k ->
        Obs.Fnv.string h
          (In_channel.with_open_bin
             (Shard_fabric.shard_journal_path jb k)
             In_channel.input_all))
      Obs.Fnv.basis [ 0; 1; 2; 3 ]
  in
  let coord_records =
    match
      Obs.Store.read_report ~decode:Result.ok
        (jb ^ ".coord.jsonl")
    with
    | Ok { Obs.Store.entries; corrupt = []; _ } -> entries
    | Ok _ -> Alcotest.fail "coordinator journal damaged"
    | Error m -> Alcotest.fail m
  in
  let coord_hash =
    List.fold_left
      (fun h r -> Obs.Fnv.string (Obs.Fnv.string h r) "\n")
      Obs.Fnv.basis coord_records
  in
  Alcotest.(check string) "shard WAL bytes" "b4bdbe87db03a269" (Obs.Fnv.hex wal_hash);
  Alcotest.(check string) "coordinator journal records" "03f25be357c19b0b"
    (Obs.Fnv.hex coord_hash)

let suite =
  [
    Alcotest.test_case "partition: shape and ownership" `Quick
      test_partition_shape;
    QCheck_alcotest.to_alcotest prop_partition_total;
    Alcotest.test_case "partition: create refuses a bad shape" `Quick
      test_partition_refuses_bad_shape;
    QCheck_alcotest.to_alcotest prop_partition_order_independent;
    Alcotest.test_case "restore ignores a parent checkpoint's partition section"
      `Quick test_restore_ignores_parent_partition;
    QCheck_alcotest.to_alcotest prop_apportion_sum_and_cap;
    Alcotest.test_case "apportion: one shard = drain cap" `Quick
      test_apportion_single_shard;
    Alcotest.test_case "apportion: proportional split" `Quick
      test_apportion_proportional;
    Alcotest.test_case "recover falls back along the checkpoint chain" `Quick
      test_recover_chain_fallback;
    Alcotest.test_case "fabric digest deterministic" `Quick
      test_fabric_deterministic;
    Alcotest.test_case "fabric fan-out: domains 1 = domains 2" `Quick
      test_fabric_fanout_digest;
    Alcotest.test_case "checkpoint JSON round-trip" `Quick
      test_checkpoint_json_roundtrip;
    Alcotest.test_case "restore rejects config mismatch" `Quick
      test_restore_rejects_config_mismatch;
    Alcotest.test_case "restore accepts retired fingerprint fields at old defaults only"
      `Quick test_restore_retired_fingerprint_fields;
    Alcotest.test_case "crash + recover = uninterrupted digest" `Quick
      test_crash_recover_differential;
    Alcotest.test_case "replay from journals alone" `Quick
      test_replay_from_journals;
    Alcotest.test_case "golden storage bytes" `Quick test_golden_storage;
    Alcotest.test_case "golden checkpoint bytes" `Quick test_golden_checkpoint;
    Alcotest.test_case "restore refuses coordinator retry state" `Quick
      test_restore_refuses_coord_retry_state;
    Alcotest.test_case "restore refuses shedding" `Quick
      test_restore_refuses_shedding;
    Alcotest.test_case "coordinator journal reads back to its digest" `Quick
      test_coord_journal_reads_back;
  ]
