module Json = Nu_obs.Json
module Counters = Nu_obs.Counters
module Histogram = Nu_obs.Histogram
module Store_fault = Nu_obs.Store_fault
module Fnv = Nu_obs.Fnv

type config = { max_restarts : int }

let default_config = { max_restarts = 16 }

(* Restart backoff: 50 ms doubling per restart to a 5 s cap, with 25%
   relative PRNG jitter. The delays are recorded, never slept, and
   they enter the recovery digest. *)
let backoff_base_s = 0.05
let backoff_factor = 2.0
let backoff_max_s = 5.0
let backoff_jitter = 0.25

(* Chain save period in ticks. The chain keeps
   [Checkpoint.Chain.default_keep] generations. *)
let checkpoint_every = 10

type failure_class =
  | Crash_injected
  | Corrupt_store
  | Fingerprint_mismatch
  | Invariant_violation
  | Io_error
  | Unknown

let class_name = function
  | Crash_injected -> "crash_injected"
  | Corrupt_store -> "corrupt_store"
  | Fingerprint_mismatch -> "fingerprint_mismatch"
  | Invariant_violation -> "invariant_violation"
  | Io_error -> "io_error"
  | Unknown -> "unknown"

let class_tag = function
  | Crash_injected -> 1
  | Corrupt_store -> 2
  | Fingerprint_mismatch -> 3
  | Invariant_violation -> 4
  | Io_error -> 5
  | Unknown -> 6

let contains ~needle hay =
  let hay = String.lowercase_ascii hay in
  let nl = String.length needle and hl = String.length hay in
  let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
  at 0

let classify = function
  | Store_fault.Crash _ -> Crash_injected
  | Store_fault.Store_error _ -> Io_error
  | Sys_error _ -> Io_error
  | Failure m when contains ~needle:"invariant" m || contains ~needle:"quiescent" m
    ->
      Invariant_violation
  | Failure m when contains ~needle:"corrupt" m || contains ~needle:"hash" m ->
      Corrupt_store
  | Failure m when contains ~needle:"fingerprint" m || contains ~needle:"mismatch" m
    ->
      Fingerprint_mismatch
  | _ -> Unknown

type event =
  | Started of { attempt : int; from_tick : int; fallback_depth : int; replayed : int }
  | Failed of { attempt : int; at_tick : int; cls : failure_class; reason : string }
  | Backoff of { attempt : int; delay_s : float }
  | Cold_start of { attempt : int; reason : string }
  | Completed of { ticks : int; restarts : int }
  | Gave_up of { restarts : int }

let event_to_json = function
  | Started { attempt; from_tick; fallback_depth; replayed } ->
      Json.Obj
        [
          ("event", Json.String "started");
          ("attempt", Json.Int attempt);
          ("from_tick", Json.Int from_tick);
          ("fallback_depth", Json.Int fallback_depth);
          ("replayed", Json.Int replayed);
        ]
  | Failed { attempt; at_tick; cls; reason } ->
      Json.Obj
        [
          ("event", Json.String "failed");
          ("attempt", Json.Int attempt);
          ("at_tick", Json.Int at_tick);
          ("class", Json.String (class_name cls));
          ("reason", Json.String reason);
        ]
  | Backoff { attempt; delay_s } ->
      Json.Obj
        [
          ("event", Json.String "backoff");
          ("attempt", Json.Int attempt);
          ("delay_s", Json.Float delay_s);
        ]
  | Cold_start { attempt; reason } ->
      Json.Obj
        [
          ("event", Json.String "cold_start");
          ("attempt", Json.Int attempt);
          ("reason", Json.String reason);
        ]
  | Completed { ticks; restarts } ->
      Json.Obj
        [
          ("event", Json.String "completed");
          ("ticks", Json.Int ticks);
          ("restarts", Json.Int restarts);
        ]
  | Gave_up { restarts } ->
      Json.Obj [ ("event", Json.String "gave_up"); ("restarts", Json.Int restarts) ]

(* Same FNV-1a shape as [Nu_fault.Recovery.digest]: the recovery log
   digest is a deterministic fingerprint of the whole supervision
   history, so two crash-storm runs agree on more than the final
   decision digest. Reason text stays out of it: it quotes file paths
   and parse offsets, which move with the storm directory and with a
   checkpoint's wall-clock bytes. The reasons live on in the event
   log's JSON. *)
let log_digest events =
  let h =
    List.fold_left
      (fun h e ->
        match e with
        | Started { attempt; from_tick; fallback_depth; replayed } ->
            Fnv.int
              (Fnv.int (Fnv.int (Fnv.int (Fnv.int h 1) attempt) from_tick)
                 fallback_depth)
              replayed
        | Failed { attempt; at_tick; cls; reason = _ } ->
            Fnv.int (Fnv.int (Fnv.int (Fnv.int h 2) attempt) at_tick)
              (class_tag cls)
        | Backoff { attempt; delay_s } ->
            Fnv.float (Fnv.int (Fnv.int h 3) attempt) delay_s
        | Cold_start { attempt; reason = _ } -> Fnv.int (Fnv.int h 4) attempt
        | Completed { ticks; restarts } ->
            Fnv.int (Fnv.int (Fnv.int h 5) ticks) restarts
        | Gave_up { restarts } -> Fnv.int (Fnv.int h 6) restarts)
      Fnv.basis events
  in
  Fnv.hex h

type outcome = {
  digest : string option;
  ticks : int;
  restarts : int;
  gave_up : bool;
  corrupt_frames : int;
  events : event list;
  recovery_digest : string;
}

let outcome_to_json o =
  Json.Obj
    [
      ( "digest",
        match o.digest with None -> Json.Null | Some d -> Json.String d );
      ("ticks", Json.Int o.ticks);
      ("restarts", Json.Int o.restarts);
      ("gave_up", Json.Bool o.gave_up);
      ("corrupt_frames", Json.Int o.corrupt_frames);
      ("recovery_digest", Json.String o.recovery_digest);
      ("events", Json.List (List.map event_to_json o.events));
    ]

(* ------------------------------------------------------------------ *)
(* The supervised loop.                                                *)

let backoff_s rng ~attempt =
  let raw = backoff_base_s *. (backoff_factor ** float_of_int (attempt - 1)) in
  let capped = Float.min backoff_max_s raw in
  capped *. (1.0 +. (backoff_jitter *. ((2.0 *. Prng.unit_float rng) -. 1.0)))

let run ?(sup = default_config) ?fault ~jitter_seed
    ~serve_config ~source_spec ~topology ~fresh_net ~journal_path
    ~checkpoint_path ~ticks () =
  let rng = Prng.create jitter_seed in
  let events = ref [] in
  let push e = events := e :: !events in
  let restarts = ref 0 in
  let attempt = ref 0 in
  let corrupt_total = ref 0 in
  let graph = topology.Topology.graph in
  (* Read whatever survives on disk; corruption is counted, not fatal. *)
  let surviving_entries () =
    if not (Sys.file_exists journal_path) then []
    else
      match Journal.read_report ?fault journal_path with
      | Error _ -> []
      | Ok r ->
          let n = List.length r.Journal.corrupt in
          if n > 0 then begin
            corrupt_total := !corrupt_total + n;
            Counters.add Counters.Store_frames_corrupt n
          end;
          r.Journal.entries
  in
  let cold_start ~reason entries =
    push (Cold_start { attempt = !attempt; reason });
    let t =
      Serve.create serve_config ~topology ~net:(fresh_net ()) ~source_spec
    in
    let replayed, _stop = Serve.replay_prefix t entries in
    (t, Checkpoint.Chain.default_keep + 1, replayed)
  in
  (* Recover a controller from the newest verifiable chain generation,
     replay the clean journal prefix past it, and fall through to a
     cold start (fresh net + full-journal replay; the deterministic
     source regenerates anything the journal lost) when no generation
     verifies or the fingerprint does not match. *)
  let recover () =
    let entries = surviving_entries () in
    let t, depth, replayed =
      match Checkpoint.Chain.fallback ?fault ~graph checkpoint_path with
      | Error e -> cold_start ~reason:("no verifiable checkpoint: " ^ e) entries
      | Ok (cp, depth) -> (
          match
            Serve.restore_snapshot ~config:serve_config ~source_spec ~topology
              cp
          with
          | Error e -> cold_start ~reason:("restore refused: " ^ e) entries
          | Ok t ->
              let replayed, _stop = Serve.replay_prefix t entries in
              (t, depth, replayed))
    in
    if depth > 0 then Counters.incr Counters.Recovery_fallback_depth;
    if Histogram.Registry.enabled () then
      Histogram.Registry.record "recovery.fallback_depth" (float_of_int depth);
    push
      (Started
         {
           attempt = !attempt;
           from_tick = Serve.tick_count t;
           fallback_depth = depth;
           replayed;
         });
    (t, Journal.committed_ticks entries)
  in
  (* Re-roll the journal: rewrite the clean committed prefix into a
     fresh segment chain, dropping corrupt frames and any uncommitted
     tail, then keep journaling new ticks after it. Skipped once the
     target tick is reached — there is nothing left to journal, and
     truncating then would throw away the commits the final replay
     audit reads. *)
  let reroll t groups =
    if Serve.tick_count t >= ticks then None
    else begin
      let w = Journal.open_writer ?fault journal_path in
      Journal.write_committed w ~below:(Serve.tick_count t) groups;
      Serve.set_journal t (Some w);
      Some w
    end
  in
  let serve_to_target t =
    while Serve.tick_count t < ticks do
      Serve.tick t;
      if
        Serve.tick_count t mod checkpoint_every = 0
        && Serve.tick_count t < ticks
      then ignore (Serve.save_checkpoint ?fault t checkpoint_path : string)
    done;
    (* Final chain generation at exactly the target tick: the replay
       audit restores this and must find zero ticks left to re-drive. *)
    ignore (Serve.save_checkpoint ?fault t checkpoint_path : string)
  in
  let rec supervise () =
    incr attempt;
    let journal_ref = ref None in
    match
      let t, groups = recover () in
      journal_ref := reroll t groups;
      serve_to_target t;
      (match !journal_ref with
      | Some w ->
          Nu_obs.Store.close w;
          Serve.set_journal t None
      | None -> ());
      t
    with
    | t ->
        Serve.complete t;
        push (Completed { ticks; restarts = !restarts });
        let ev = List.rev !events in
        {
          digest = Some (Serve.digest t);
          ticks;
          restarts = !restarts;
          gave_up = false;
          corrupt_frames = !corrupt_total;
          events = ev;
          recovery_digest = log_digest ev;
        }
    | exception e ->
        (match !journal_ref with
        | Some w -> Nu_obs.Store.abort w
        | None -> ());
        let cls = classify e in
        let reason =
          match e with
          | Store_fault.Crash m -> m
          | Store_fault.Store_error m -> m
          | Sys_error m -> m
          | Failure m -> m
          | e -> Printexc.to_string e
        in
        push (Failed { attempt = !attempt; at_tick = -1; cls; reason });
        if !restarts >= sup.max_restarts then begin
          push (Gave_up { restarts = !restarts });
          let ev = List.rev !events in
          {
            digest = None;
            ticks;
            restarts = !restarts;
            gave_up = true;
            corrupt_frames = !corrupt_total;
            events = ev;
            recovery_digest = log_digest ev;
          }
        end
        else begin
          incr restarts;
          Counters.incr Counters.Supervisor_restarts;
          let delay = backoff_s rng ~attempt:!restarts in
          if Histogram.Registry.enabled () then
            Histogram.Registry.record "supervisor.backoff_s" delay;
          push (Backoff { attempt = !restarts; delay_s = delay });
          supervise ()
        end
  in
  supervise ()
