(* Global coordinator: the second level of the two-level planner.

   A shard escalates a round when its winner's make-room migration set
   touches flows homed on other shards (see Shard_fabric's escalate
   hook). The event then leaves the shard and commits here: Prepare is
   journaled, the engine's already-probed plan is applied inside a
   Net_state transaction on the shared fabric, the transaction commits,
   and the Commit is journaled with its participants (the homes of the
   migrated flows, plus the event's own home). Every escalation
   commits, so the whole fabric keeps one global order of decisions.

   Everything is deterministic: the coordinator draws no randomness; it
   keeps a virtual clock floored by the tick wall, and the decisions
   journal is an ordered Store record log of JSON decisions whose
   running FNV-1a digest is part of the fabric digest. Recovery does not
   read the journal back — the coordinator's whole state (clock,
   results, digest cursor) freezes into the fabric checkpoint and the
   replayed WAL regenerates the post-checkpoint entries
   bit-identically. *)

module Json = Nu_obs.Json
module Counters = Nu_obs.Counters
module Fnv = Nu_obs.Fnv

type t = {
  rng : Prng.t;
      (* Never drawn from: planning takes no PRNG. Kept only because its
         frozen state ([fz_rng], the seed's initial state) is in every
         checkpoint's bytes and the golden pins; drop it at the next
         checkpoint-format change. *)
  mutable sink : Nu_obs.Store.writer option;
  mutable now_s : float;
  mutable results : Engine.event_result list;  (* newest-first *)
  mutable entries : int;
  mutable digest_h : int64;
}

let create ?sink ~seed () =
  {
    rng = Prng.create seed;
    sink;
    now_s = 0.0;
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
let results t = List.rev t.results
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

(* Every record carries ["attempt":1]: journals written while a vetoed
   event could retry numbered its attempts, and the bytes stay those. *)
let attempt_json = ("attempt", Json.Int 1)

(* Inline commit of a wave escalation: the engine already probed (or
   live-replanned) the winner, so the commit merely applies [attempt]
   inside a fabric transaction — nothing is planned twice, which is
   what lets an N-shard wave retire N events in the wall-clock of one.
   The plan's work units were billed by the shard's probe; the virtual
   clock still charges its plan time — the decision was made somewhere.
   Failed plan items are committed and recorded in the result, as the
   single-controller engine commits them. *)
let commit_escalated t ~net ~tick ~now_floor_s ~home ~(event : Event.t)
    ~shard_of_flow ~txn_open ~attempt ~on_commit =
  t.now_s <- Float.max t.now_s now_floor_s;
  let event_json = ("event", Json.Int event.Event.id) in
  record t
    (Json.Obj
       [
         ("k", Json.String "prepare");
         ("tick", Json.Int tick);
         event_json;
         attempt_json;
       ]);
  if not txn_open then Net_state.begin_txn net;
  let plan = attempt () in
  Net_state.commit net;
  Counters.incr Counters.Shard_coord_commits;
  let participants =
    List.sort_uniq compare
      (home :: List.filter_map shard_of_flow (moved_flow_ids plan))
  in
  let start_s =
    t.now_s +. Exec_model.plan_time ~work_units:plan.Planner.work_units
  in
  let completion_s = start_s +. Exec_model.execution_time plan in
  t.now_s <- completion_s;
  let result =
    Engine.result_of_plan plan ~start_s ~completion_s ~co_scheduled:false
  in
  t.results <- result :: t.results;
  record t
    (Json.Obj
       [
         ("k", Json.String "commit");
         ("tick", Json.Int tick);
         event_json;
         attempt_json;
         ( "participants",
           Json.List (List.map (fun k -> Json.Int k) participants) );
         ("cost_mbit", Json.Float plan.Planner.cost_mbit);
         ("work_units", Json.Int plan.Planner.work_units);
         ("failed_items", Json.Int plan.Planner.failed_count);
         ("completion_s", Json.Float completion_s);
       ]);
  on_commit ~home ~result plan

(* ------------------------------------------------------------------ *)
(* Freeze / thaw.                                                      *)

type frozen = {
  fz_now : float;
  fz_results : Engine.event_result list;  (* newest-first *)
  fz_entries : int;
  fz_digest : int64;
  fz_rng : int64;
}

let freeze t =
  {
    fz_now = t.now_s;
    fz_results = t.results;
    fz_entries = t.entries;
    fz_digest = t.digest_h;
    fz_rng = Prng.raw_state t.rng;
  }

let thaw fz =
  {
    rng = Prng.of_raw_state fz.fz_rng;
    sink = None;
    now_s = fz.fz_now;
    results = fz.fz_results;
    entries = fz.fz_entries;
    digest_h = fz.fz_digest;
  }

(* ["queue"] and ["units"] held the retry state of the veto path this
   coordinator no longer has; they stay in the bytes at their only
   values, an empty queue and zero units. *)
let frozen_to_json fz =
  Json.Obj
    [
      ("queue", Json.List []);
      ("now_s", Json.Float fz.fz_now);
      ("units", Json.Int 0);
      ( "results",
        Json.List (List.map Codec.event_result_to_json fz.fz_results) );
      ("entries", Json.Int fz.fz_entries);
      ("digest", Codec.int64_to_json fz.fz_digest);
      ("rng", Codec.int64_to_json fz.fz_rng);
    ]

let ( let* ) = Result.bind

let frozen_of_json j =
  let* queue = Codec.list_field "queue" j in
  let* units = Codec.int_field "units" j in
  if queue <> [] || units <> 0 then
    Error
      (Printf.sprintf
         "coordinator retry state (%d queued event(s), %d unit(s)) cannot \
          be restored: escalations commit without retries"
         (List.length queue) units)
  else
    let* fz_now = Codec.float_field "now_s" j in
    let* rl = Codec.list_field "results" j in
    let* fz_results = Codec.map_m Codec.event_result_of_json rl in
    let* fz_entries = Codec.int_field "entries" j in
    let* dj = Codec.field "digest" j in
    let* fz_digest = Codec.int64_of_json dj in
    let* rj = Codec.field "rng" j in
    let* fz_rng = Codec.int64_of_json rj in
    Ok { fz_now; fz_results; fz_entries; fz_digest; fz_rng }
