module Json = Nu_obs.Json

type churn_spec = {
  churn_seed : int;
  churn_target : float;
  churn_max_per_round : int;
  churn_first_id : int;
}

type config = {
  policy : Policy.t;
  engine_seed : int;
  admission_capacity : int;
  admission_policy : Admission.policy;
  drain_per_tick : int;
  steps_per_tick : int;
  tick_dt_s : float;
  co_max_cost_mbit : float;
  churn : churn_spec option;
  domains : int;
      (* Execution width only — never part of the checkpoint
         fingerprint: decisions are width-independent, so a journal
         recorded at one width replays identically at another. *)
}

let default_config policy =
  {
    policy;
    engine_seed = 42;
    admission_capacity = 64;
    admission_policy = Admission.Block;
    drain_per_tick = 8;
    steps_per_tick = 4;
    tick_dt_s = 0.05;
    co_max_cost_mbit = 0.0;
    churn = None;
    domains = 1;
  }

let validate_config cfg =
  (match cfg.policy with
  | Policy.Flow_level _ ->
      invalid_arg "Serve: flow-level policies are batch-only"
  | _ -> ());
  if cfg.drain_per_tick <= 0 then
    invalid_arg "Serve: drain_per_tick must be > 0";
  if cfg.steps_per_tick <= 0 then
    invalid_arg "Serve: steps_per_tick must be > 0";
  if (not (Float.is_finite cfg.tick_dt_s)) || cfg.tick_dt_s <= 0.0 then
    invalid_arg "Serve: tick_dt_s must be finite and > 0";
  if cfg.co_max_cost_mbit < 0.0 || not (Float.is_finite cfg.co_max_cost_mbit)
  then invalid_arg "Serve: co_max_cost_mbit must be finite and >= 0";
  if cfg.domains < 1 then invalid_arg "Serve: domains must be >= 1";
  match cfg.churn with
  | None -> ()
  | Some cs ->
      if
        (not (Float.is_finite cs.churn_target))
        || cs.churn_target <= 0.0 || cs.churn_target > 1.0
      then invalid_arg "Serve: churn_target must be in (0, 1]";
      if cs.churn_max_per_round <= 0 then
        invalid_arg "Serve: churn_max_per_round must be > 0";
      if cs.churn_first_id < 0 then
        invalid_arg "Serve: churn_first_id must be >= 0"

(* Each churn flow is drawn from a fresh stream keyed by its id, so the
   only churn cursor a checkpoint needs is the engine's next-churn-id —
   already part of the stepper's frozen state. *)
let engine_churn ~host_count = function
  | None -> None
  | Some cs ->
      let make_flow ~id =
        let rng = Prng.create (cs.churn_seed lxor (id * 0x9E3779B1)) in
        (Yahoo_trace.generate ~first_id:id rng ~host_count ~n:1).(0)
      in
      Some
        {
          Engine.make_flow;
          target_utilization = cs.churn_target;
          max_placements_per_round = cs.churn_max_per_round;
          first_id = cs.churn_first_id;
        }

let churn_spec_to_json cs =
  Json.Obj
    [
      ("seed", Json.Int cs.churn_seed);
      ("target", Json.Float cs.churn_target);
      ("max_per_round", Json.Int cs.churn_max_per_round);
      ("first_id", Json.Int cs.churn_first_id);
    ]

let config_to_json cfg =
  Json.Obj
    [
      ("policy", Codec.policy_to_json cfg.policy);
      ("engine_seed", Json.Int cfg.engine_seed);
      ("admission_capacity", Json.Int cfg.admission_capacity);
      ("admission_policy", Json.String (Admission.policy_name cfg.admission_policy));
      ("drain_per_tick", Json.Int cfg.drain_per_tick);
      ("steps_per_tick", Json.Int cfg.steps_per_tick);
      ("tick_dt_s", Json.Float cfg.tick_dt_s);
      ("co_max_cost_mbit", Json.Float cfg.co_max_cost_mbit);
      ( "churn",
        match cfg.churn with
        | None -> Json.Null
        | Some cs -> churn_spec_to_json cs );
    ]

let spec_to_json = function
  | Source.Synthetic
      { seed; rate_per_tick; flows_per_event; tenants; first_event_id;
        first_flow_id } ->
      Json.Obj
        [
          ("kind", Json.String "synthetic");
          ("seed", Json.Int seed);
          ("rate_per_tick", Json.Float rate_per_tick);
          ("flows_per_event", Json.Int flows_per_event);
          ("tenants", Json.List (List.map (fun t -> Json.String t) tenants));
          ("first_event_id", Json.Int first_event_id);
          ("first_flow_id", Json.Int first_flow_id);
        ]
  | Source.Stream path ->
      Json.Obj [ ("kind", Json.String "stream"); ("path", Json.String path) ]

(* Fingerprint fields of retired knobs, at the values that never moved
   a decision: a checkpoint carrying one still restores, and any other
   value stays a mismatch.
   - config.estimate_cache: the engine's estimate cache, on or off;
   - coord.max_cost_mbit: the coordinator's cost cap, only 0 (off). *)
let retired section field v =
  match (section, field) with
  | "config", "estimate_cache" -> true
  | "coord", "max_cost_mbit" ->
      Json.to_string v = Json.to_string (Json.Float 0.0)
  | _ -> false

let drop_retired = function
  | Json.Obj sections ->
      Json.Obj
        (List.map
           (function
             | section, Json.Obj c ->
                 ( section,
                   Json.Obj
                     (List.filter (fun (f, v) -> not (retired section f v)) c)
                 )
             | field -> field)
           sections)
  | j -> j

(* Fingerprints are compared through a print/parse round-trip (the
   stored copy went through the checkpoint file), so compare printed
   forms — printing is canonical even where parsing widens types. *)
let fingerprint_matches stored expected =
  Json.to_string (drop_retired stored) = Json.to_string expected
