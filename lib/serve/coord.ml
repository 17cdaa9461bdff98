(* Global coordinator: the second level of the two-level planner.

   A shard escalates a round when its winner's make-room migration set
   touches flows homed on other shards (see Shard_fabric's escalate
   hook). The event then leaves the shard and commits here, two-phase:
   Prepare is journaled, every participant shard (the homes of the
   migrated flows, plus the event's own home) gets a veto vote, and the
   plan commits inside a Net_state transaction on the shared fabric
   only on unanimous yes — otherwise the transaction rolls back, the
   Abort is journaled and the event is re-planned here a bounded number
   of times before degrading (scan-first admission, failures accepted,
   outside any vote).

   Everything is deterministic: the coordinator has its own PRNG and a
   virtual clock floored by the tick wall, and the decisions journal is
   an ordered Store record log of JSON decisions whose running FNV-1a
   digest is part of the fabric digest. Recovery does not read the
   journal back — the coordinator's whole state (queue, clock, results,
   digest cursor, PRNG) freezes into the fabric checkpoint and the
   replayed WAL regenerates the post-checkpoint entries
   bit-identically. *)

module Json = Nu_obs.Json
module Counters = Nu_obs.Counters
module Fnv = Nu_obs.Fnv

type config = { veto_backlog : int; max_attempts : int }

let default_config = { veto_backlog = 512; max_attempts = 3 }

let validate_config cfg =
  if cfg.veto_backlog < 0 then
    invalid_arg "Coord: veto_backlog must be >= 0";
  if cfg.max_attempts < 1 then invalid_arg "Coord: max_attempts must be >= 1"

let config_to_json cfg =
  Json.Obj
    [
      ("veto_backlog", Json.Int cfg.veto_backlog);
      ("max_attempts", Json.Int cfg.max_attempts);
    ]

type pending = {
  p_event : Event.t;
  p_home : int;
  p_enq_tick : int;
  mutable p_attempts : int;
  mutable p_not_before : int;
}

type t = {
  cfg : config;
  exec : Exec_model.t;
  plan_config : Planner.config;
  rng : Prng.t;
  mutable sink : Nu_obs.Store.writer option;
  mutable queue : pending list;  (* oldest-first *)
  mutable now_s : float;
  mutable units : int;
  mutable results : Engine.event_result list;  (* newest-first *)
  mutable entries : int;
  mutable digest_h : int64;
}

let create ?sink ?(exec = Exec_model.default)
    ?(plan_config = Planner.default_config) ~seed cfg =
  validate_config cfg;
  {
    cfg;
    exec;
    plan_config;
    rng = Prng.create seed;
    sink;
    queue = [];
    now_s = 0.0;
    units = 0;
    results = [];
    entries = 0;
    digest_h = Fnv.basis;
  }

let set_sink t sink = t.sink <- sink

let close t =
  Option.iter Nu_obs.Store.close t.sink;
  t.sink <- None

(* Journal one decision: the digest covers every entry whether or not
   a sink is attached, so a journal-less fabric (tests, benches)
   digests identically to a journaled one. *)
let record t j =
  let line = Json.to_string j in
  t.digest_h <- Fnv.int (Fnv.string t.digest_h line) 0x0a;
  t.entries <- t.entries + 1;
  match t.sink with
  | Some w ->
      Nu_obs.Store.append w line;
      Nu_obs.Store.flush w
  | None -> ()

let digest t = Fnv.hex t.digest_h
let entries t = t.entries
let pending_count t = List.length t.queue
let results t = List.rev t.results
let units t = t.units
let now_s t = t.now_s

(* Flow ids the plan's make-room moves migrated — the cross-shard
   migration set. *)
let moved_flow_ids (plan : Planner.t) =
  List.concat_map
    (fun (it : Planner.item_plan) ->
      match it.Planner.outcome with
      | Planner.Installed { moves; _ } | Planner.Rerouted { moves; _ } ->
          List.map (fun (m : Migration.move) -> m.Migration.flow_id) moves
      | Planner.Failed _ -> [])
    plan.Planner.items

let participants_json ps = Json.List (List.map (fun k -> Json.Int k) ps)

(* Execute one accepted plan: bill units, advance the virtual clock by
   plan + execution time, accumulate the event result and notify the
   fabric so the home shard registers churn departures and telemetry
   sees the completion. *)
let finish t ~tick ~kind ~participants ~billed ~on_commit p
    (plan : Planner.t) =
  (* Inline wave commits reuse a plan the shard's probe already billed;
     only the coordinator's own planning (retries, degrades) adds to
     the fabric's unit total. The virtual clock charges plan time
     either way — the decision was made somewhere. *)
  if billed then t.units <- t.units + plan.Planner.work_units;
  let plan_t = Exec_model.plan_time t.exec ~work_units:plan.Planner.work_units in
  let exec_t = Exec_model.execution_time t.exec plan in
  let start_s = t.now_s +. plan_t in
  let completion_s = start_s +. exec_t in
  t.now_s <- completion_s;
  let degraded = kind = "degraded" in
  let result =
    {
      Engine.event_id = p.p_event.Event.id;
      arrival_s = p.p_event.Event.arrival_s;
      start_s;
      completion_s;
      cost_mbit = plan.Planner.cost_mbit;
      plan_work_units = plan.Planner.work_units;
      failed_items = plan.Planner.failed_count;
      co_scheduled = false;
    }
  in
  t.results <- result :: t.results;
  record t
    (Json.Obj
       [
         ("k", Json.String kind);
         ("tick", Json.Int tick);
         ("event", Json.Int p.p_event.Event.id);
         ("attempt", Json.Int p.p_attempts);
         ("participants", participants_json participants);
         ("cost_mbit", Json.Float plan.Planner.cost_mbit);
         ("work_units", Json.Int plan.Planner.work_units);
         ("failed_items", Json.Int plan.Planner.failed_count);
         ("completion_s", Json.Float completion_s);
       ]);
  on_commit ~home:p.p_home ~result ~degraded plan

(* Flow homes of the migration set plus the event's own home. *)
let participants_of ~shard_of_flow p moved =
  List.sort_uniq compare (p.p_home :: List.filter_map shard_of_flow moved)

(* One two-phase attempt, shared by the inline commit and the retry
   pass. Prepare is journaled and every participant (the homes of
   [moved] plus the event's) votes on the announced migration set; a
   participant whose backlog exceeds [veto_backlog] vetoes. On a veto
   the transaction rolls back (if [txn_open]), the abort is journaled
   and the event retries on the next tick. On unanimous yes
   [attempt] applies the plan inside a fabric transaction, which
   commits. Failed plan items are not grounds for abort: the engine
   itself commits plans with failures and records them in the result,
   and a retry against a fuller fabric can only do worse. Returns
   [true] iff the event committed. *)
let two_phase t ~net ~tick ~shard_of_flow ~(backlogs : int array) ~on_commit
    ~billed ~txn_open p ~moved ~attempt =
  record t
    (Json.Obj
       [
         ("k", Json.String "prepare");
         ("tick", Json.Int tick);
         ("event", Json.Int p.p_event.Event.id);
         ("attempt", Json.Int p.p_attempts);
       ]);
  let participants = participants_of ~shard_of_flow p moved in
  let vetoed =
    List.filter
      (fun k ->
        k >= 0 && k < Array.length backlogs
        && backlogs.(k) > t.cfg.veto_backlog)
      participants
  in
  if vetoed <> [] then begin
    if txn_open then Net_state.rollback net;
    Counters.incr Counters.Shard_coord_aborts;
    record t
      (Json.Obj
         [
           ("k", Json.String "abort");
           ("tick", Json.Int tick);
           ("event", Json.Int p.p_event.Event.id);
           ("attempt", Json.Int p.p_attempts);
           ("participants", participants_json participants);
           ("reason", Json.String "veto");
           ("vetoed", participants_json vetoed);
         ]);
    p.p_not_before <- tick + 1;
    false
  end
  else begin
    if not txn_open then Net_state.begin_txn net;
    let plan = attempt () in
    Net_state.commit net;
    Counters.incr Counters.Shard_coord_commits;
    finish t ~tick ~kind:"commit"
      ~participants:(participants_of ~shard_of_flow p (moved_flow_ids plan))
      ~billed ~on_commit p plan;
    true
  end

(* Inline two-phase commit for a wave escalation: the engine already
   probed (or live-replanned) the winner, so the vote is on the
   announced migration set and the commit merely applies [attempt] —
   nothing is planned twice on the commit path, which is what lets an
   N-shard wave retire N events in the wall-clock of one. A vetoed
   event joins the retry queue below. *)
let commit_escalated t ~net ~tick ~now_floor_s ~home ~(event : Event.t) ~moved
    ~shard_of_flow ~backlogs ~txn_open ~attempt ~on_commit =
  t.now_s <- Float.max t.now_s now_floor_s;
  let p =
    {
      p_event = event;
      p_home = home;
      p_enq_tick = tick;
      p_attempts = 1;
      p_not_before = tick;
    }
  in
  if
    not
      (two_phase t ~net ~tick ~shard_of_flow ~backlogs ~on_commit
         ~billed:false ~txn_open p ~moved ~attempt)
  then t.queue <- t.queue @ [ p ]

(* One coordinator pass: every queued event whose retry delay elapsed
   is re-planned inside a transaction on the live fabric and gets a
   two-phase attempt; after [max_attempts] aborts it degrades to a
   scan-first plan outside any transaction, accepting whatever failures
   remain — the event must terminate. [shard_of_flow] maps a migrated
   flow to its home shard (None for flows that left the network since
   the plan was made); [backlogs] is each shard's vote input.
   Deterministic given the same net, queue and clock. *)
let attempt_due t ~net ~tick ~now_floor_s ~shard_of_flow ~backlogs ~on_commit =
  if t.queue <> [] then begin
    t.now_s <- Float.max t.now_s now_floor_s;
    (* [true] once the event terminated: committed, or degraded after
       its last attempt. *)
    let retry p =
      p.p_attempts <- p.p_attempts + 1;
      Net_state.begin_txn net;
      let plan = Planner.plan ~rng:t.rng ~config:t.plan_config net p.p_event in
      if
        two_phase t ~net ~tick ~shard_of_flow ~backlogs ~on_commit ~billed:true
          ~txn_open:true p ~moved:(moved_flow_ids plan) ~attempt:(fun () ->
            plan)
      then true
      else if p.p_attempts < t.cfg.max_attempts then false
      else begin
        let dplan =
          Planner.plan ~rng:t.rng
            ~config:
              { t.plan_config with Planner.admission = Planner.Scan_first }
            net p.p_event
        in
        Counters.incr Counters.Shard_coord_degraded;
        finish t ~tick ~kind:"degraded" ~participants:[ p.p_home ] ~billed:true
          ~on_commit p dplan;
        true
      end
    in
    (* Waiting and retried events keep their queue order. *)
    t.queue <-
      List.rev
        (List.fold_left
           (fun still p ->
             if p.p_not_before > tick || not (retry p) then p :: still
             else still)
           [] t.queue)
  end

(* ------------------------------------------------------------------ *)
(* Freeze / thaw.                                                      *)

type frozen = {
  fz_queue : (Event.t * int * int * int * int) list;
      (* event, home, enq_tick, attempts, not_before *)
  fz_now : float;
  fz_units : int;
  fz_results : Engine.event_result list;  (* newest-first *)
  fz_entries : int;
  fz_digest : int64;
  fz_rng : int64;
}

let freeze t =
  {
    fz_queue =
      List.map
        (fun p -> (p.p_event, p.p_home, p.p_enq_tick, p.p_attempts, p.p_not_before))
        t.queue;
    fz_now = t.now_s;
    fz_units = t.units;
    fz_results = t.results;
    fz_entries = t.entries;
    fz_digest = t.digest_h;
    fz_rng = Prng.raw_state t.rng;
  }

let thaw ?sink ?(exec = Exec_model.default)
    ?(plan_config = Planner.default_config) cfg fz =
  validate_config cfg;
  {
    cfg;
    exec;
    plan_config;
    rng = Prng.of_raw_state fz.fz_rng;
    sink;
    queue =
      List.map
        (fun (ev, home, enq, att, nb) ->
          {
            p_event = ev;
            p_home = home;
            p_enq_tick = enq;
            p_attempts = att;
            p_not_before = nb;
          })
        fz.fz_queue;
    now_s = fz.fz_now;
    units = fz.fz_units;
    results = fz.fz_results;
    entries = fz.fz_entries;
    digest_h = fz.fz_digest;
  }

let frozen_to_json fz =
  Json.Obj
    [
      ( "queue",
        Json.List
          (List.map
             (fun (ev, home, enq, att, nb) ->
               Json.Obj
                 [
                   ("event", Codec.event_to_json ev);
                   ("home", Json.Int home);
                   ("enq_tick", Json.Int enq);
                   ("attempts", Json.Int att);
                   ("not_before", Json.Int nb);
                 ])
             fz.fz_queue) );
      ("now_s", Json.Float fz.fz_now);
      ("units", Json.Int fz.fz_units);
      ( "results",
        Json.List (List.map Codec.event_result_to_json fz.fz_results) );
      ("entries", Json.Int fz.fz_entries);
      ("digest", Codec.int64_to_json fz.fz_digest);
      ("rng", Codec.int64_to_json fz.fz_rng);
    ]

let ( let* ) = Result.bind

let frozen_of_json j =
  let* ql = Codec.list_field "queue" j in
  let* fz_queue =
    Codec.map_m
      (fun pj ->
        let* ej = Codec.field "event" pj in
        let* ev = Codec.event_of_json ej in
        let* home = Codec.int_field "home" pj in
        let* enq = Codec.int_field "enq_tick" pj in
        let* att = Codec.int_field "attempts" pj in
        let* nb = Codec.int_field "not_before" pj in
        Ok (ev, home, enq, att, nb))
      ql
  in
  let* fz_now = Codec.float_field "now_s" j in
  let* fz_units = Codec.int_field "units" j in
  let* rl = Codec.list_field "results" j in
  let* fz_results = Codec.map_m Codec.event_result_of_json rl in
  let* fz_entries = Codec.int_field "entries" j in
  let* dj = Codec.field "digest" j in
  let* fz_digest = Codec.int64_of_json dj in
  let* rj = Codec.field "rng" j in
  let* fz_rng = Codec.int64_of_json rj in
  Ok { fz_queue; fz_now; fz_units; fz_results; fz_entries; fz_digest; fz_rng }
