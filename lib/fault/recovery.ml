module Counters = Nu_obs.Counters
module Json = Nu_obs.Json
module Fnv = Nu_obs.Fnv

type decision =
  | Fault_applied of { at_s : float; tag : int; subject : int }
  | Migration_aborted of { event_id : int; at_s : float; attempt : int }
  | Retry_scheduled of { event_id : int; ready_s : float; attempt : int }
  | Event_degraded of { event_id : int; at_s : float }
  | Flow_evacuated of { flow_id : int; at_s : float; dropped : bool }
  | Invariant_violated of { at_s : float; name : string }

type t = { mutable log : decision list (* newest first *) }

let create () = { log = [] }

let record t d =
  (match d with
  | Fault_applied _ -> Counters.incr Counters.Faults_injected
  | Migration_aborted _ -> Counters.incr Counters.Migrations_aborted
  | Retry_scheduled _ -> Counters.incr Counters.Retries
  | Event_degraded _ -> Counters.incr Counters.Events_degraded
  | Flow_evacuated _ | Invariant_violated _ -> ());
  t.log <- d :: t.log

let decisions t = List.rev t.log

type stats = {
  faults_applied : int;
  aborts : int;
  retries : int;
  degraded : int;
  evacuated : int;
  dropped : int;
  violations : int;
}

let stats t =
  List.fold_left
    (fun s d ->
      match d with
      | Fault_applied _ -> { s with faults_applied = s.faults_applied + 1 }
      | Migration_aborted _ -> { s with aborts = s.aborts + 1 }
      | Retry_scheduled _ -> { s with retries = s.retries + 1 }
      | Event_degraded _ -> { s with degraded = s.degraded + 1 }
      | Flow_evacuated { dropped; _ } ->
          if dropped then { s with dropped = s.dropped + 1 }
          else { s with evacuated = s.evacuated + 1 }
      | Invariant_violated _ -> { s with violations = s.violations + 1 })
    {
      faults_applied = 0;
      aborts = 0;
      retries = 0;
      degraded = 0;
      evacuated = 0;
      dropped = 0;
      violations = 0;
    }
    t.log

let digest t =
  let h =
    List.fold_left
      (fun h d ->
        match d with
        | Fault_applied { at_s; tag; subject } ->
            Fnv.int (Fnv.int (Fnv.float (Fnv.int h 1) at_s) tag) subject
        | Migration_aborted { event_id; at_s; attempt } ->
            Fnv.int (Fnv.float (Fnv.int (Fnv.int h 2) event_id) at_s) attempt
        | Retry_scheduled { event_id; ready_s; attempt } ->
            Fnv.int (Fnv.float (Fnv.int (Fnv.int h 3) event_id) ready_s) attempt
        | Event_degraded { event_id; at_s } ->
            Fnv.float (Fnv.int (Fnv.int h 4) event_id) at_s
        | Flow_evacuated { flow_id; at_s; dropped } ->
            Fnv.int
              (Fnv.float (Fnv.int (Fnv.int h 5) flow_id) at_s)
              (if dropped then 1 else 0)
        | Invariant_violated { at_s; name } ->
            Fnv.string (Fnv.float (Fnv.int h 6) at_s) name)
      Fnv.basis (decisions t)
  in
  Fnv.hex h

let stats_fields s =
  [
    ("faults_applied", Json.Int s.faults_applied);
    ("migrations_aborted", Json.Int s.aborts);
    ("retries", Json.Int s.retries);
    ("events_degraded", Json.Int s.degraded);
    ("flows_evacuated", Json.Int s.evacuated);
    ("flows_dropped", Json.Int s.dropped);
    ("invariant_violations", Json.Int s.violations);
  ]

let stats_to_json t =
  Json.Obj (("digest", Json.String (digest t)) :: stats_fields (stats t))
