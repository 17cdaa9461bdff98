module Json = Nu_obs.Json
module Counters = Nu_obs.Counters
module Histogram = Nu_obs.Histogram
module Injector = Nu_fault.Injector

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Configuration.                                                      *)

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
  estimate_cache : bool;
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
    estimate_cache = true;
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
      ("estimate_cache", Json.Bool cfg.estimate_cache);
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

let fingerprint cfg spec =
  Json.Obj [ ("config", config_to_json cfg); ("source", spec_to_json spec) ]

(* Fingerprints are compared through a print/parse round-trip (the
   stored copy went through the checkpoint file), so compare printed
   forms — printing is canonical even where parsing widens types. *)
let fingerprint_matches a b = Json.to_string a = Json.to_string b

(* ------------------------------------------------------------------ *)
(* Controller.                                                         *)

type t = {
  cfg : config;
  topology : Topology.t;
  net : Net_state.t;
  source_spec : Source.spec;
  source_params : Benson_trace.params option;
      (* Kept so tolerant replay can rewind the source cursor by
         re-thawing a pre-poll freeze. *)
  mutable source : Source.t;
  admission : Admission.t;
  stepper : Engine.Stepper.t;
  injector : Injector.t option;
  telemetry : Telemetry.t option;
      (* Recording-only; deliberately absent from the checkpoint
         fingerprint so journals replay regardless of telemetry. *)
  mutable journal : Journal.writer option;
  mutable deferred : Request.t list;
  mutable tick_count : int;
}

let create ?source_params ?injector ?series ?telemetry ?journal cfg ~topology
    ~net ~source_spec =
  validate_config cfg;
  let host_count = Topology.host_count topology in
  let source = Source.create ?params:source_params ~host_count source_spec in
  let admission =
    Admission.create ~capacity:cfg.admission_capacity
      ~policy:cfg.admission_policy
  in
  let stepper =
    Engine.Stepper.create ~seed:cfg.engine_seed ~domains:cfg.domains
      ?churn:(engine_churn ~host_count cfg.churn)
      ~co_max_cost_mbit:cfg.co_max_cost_mbit
      ~estimate_cache:cfg.estimate_cache ?injector ?series
      ?observer:(Option.map Telemetry.observer telemetry)
      ~net cfg.policy
  in
  {
    cfg;
    topology;
    net;
    source_spec;
    source_params;
    source;
    admission;
    stepper;
    injector;
    telemetry;
    journal;
    deferred = [];
    tick_count = 0;
  }

let tick_count t = t.tick_count
let now_s t = float_of_int t.tick_count *. t.cfg.tick_dt_s
let admission t = t.admission
let telemetry t = t.telemetry
let deferred_count t = List.length t.deferred
let engine_backlog t = Engine.Stepper.backlog t.stepper
let completed t = Engine.Stepper.completed t.stepper
let source_exhausted t = Source.exhausted t.source

let quiescent t =
  Admission.size t.admission = 0
  && t.deferred = []
  && not (Engine.Stepper.has_work t.stepper)

let result t = Engine.Stepper.result t.stepper
let digest t = Run_digest.of_run (result t)

let set_journal t w = t.journal <- w

let retire t =
  let r = result t in
  Engine.Stepper.close t.stepper;
  Engine.record_event_histograms r.Engine.events;
  (match t.telemetry with Some tel -> Telemetry.on_retire tel | None -> ());
  (match t.journal with
  | Some w ->
      Journal.close_writer w;
      t.journal <- None
  | None -> ());
  r

(* One tick's admission + execution, with [arrivals] already journaled
   (or replayed). Deferred requests are re-offered ahead of fresh
   arrivals so Block cannot reorder a tenant's stream. *)
let execute_tick t arrivals =
  (match t.telemetry with
  | Some tel ->
      Telemetry.on_tick_start tel ~tick:t.tick_count ~now_s:(now_s t);
      (* Fresh arrivals only: deferred requests were stamped when first
         seen. *)
      List.iter (Telemetry.on_arrival tel) arrivals
  | None -> ());
  let candidates = t.deferred @ arrivals in
  t.deferred <- [];
  let deferred_rev = ref [] in
  List.iter
    (fun req ->
      let outcome = Admission.offer t.admission ~tick:t.tick_count req in
      (match t.telemetry with
      | Some tel -> Telemetry.on_admission tel req outcome
      | None -> ());
      match outcome with
      | Admission.Admitted -> Counters.incr Counters.Serve_admitted
      | Admission.Shed _ -> Counters.incr Counters.Serve_shed
      | Admission.Deferred ->
          Counters.incr Counters.Serve_deferred;
          deferred_rev := req :: !deferred_rev)
    candidates;
  t.deferred <- List.rev !deferred_rev;
  let drained = Admission.drain t.admission ~max:t.cfg.drain_per_tick in
  if drained <> [] then begin
    Counters.add Counters.Serve_drained (List.length drained);
    if Histogram.Registry.enabled () then
      List.iter
        (fun (_, enq_tick) ->
          Histogram.Registry.record "serve.admission_wait_s"
            (float_of_int (t.tick_count - enq_tick) *. t.cfg.tick_dt_s))
        drained;
    (match t.telemetry with
    | Some tel ->
        List.iter
          (fun (req, enq_tick) ->
            Telemetry.on_drain tel req ~wait_ticks:(t.tick_count - enq_tick))
          drained
    | None -> ());
    Engine.Stepper.submit t.stepper
      (List.map (fun (req, _) -> req.Request.event) drained)
  end;
  let steps = ref 0 in
  let continue = ref true in
  while !continue && !steps < t.cfg.steps_per_tick do
    match Engine.Stepper.step t.stepper with
    | `Stepped -> incr steps
    | `Idle -> continue := false
  done;
  if Histogram.Registry.enabled () then begin
    Histogram.Registry.record "serve.queue_depth"
      (float_of_int (Admission.size t.admission));
    Histogram.Registry.record "serve.engine_backlog"
      (float_of_int (Engine.Stepper.backlog t.stepper))
  end;
  (match t.telemetry with
  | Some tel ->
      Telemetry.on_tick_end tel ~tick:t.tick_count
        ~queue:(Admission.size t.admission)
        ~backlog:(Engine.Stepper.backlog t.stepper)
  | None -> ());
  Counters.incr Counters.Serve_ticks;
  t.tick_count <- t.tick_count + 1

let tick t =
  let arrivals = Source.poll t.source ~tick:t.tick_count ~now_s:(now_s t) in
  (match t.journal with
  | Some w ->
      (* Write-ahead: arrivals are durable before any decision acts on
         them; the Tick_done marker commits the tick afterwards. *)
      List.iter
        (fun req ->
          Journal.write w (Journal.Arrive { tick = t.tick_count; request = req }))
        arrivals;
      Journal.flush w
  | None -> ());
  execute_tick t arrivals;
  match t.journal with
  | Some w ->
      Journal.write w (Journal.Tick_done (t.tick_count - 1));
      Journal.flush w
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Checkpointing.                                                      *)

let snapshot t =
  {
    (* seq/parent are threaded in by [Checkpoint.Chain.save]. *)
    Checkpoint.tick = t.tick_count;
    seq = 0;
    parent = None;
    meta = fingerprint t.cfg t.source_spec;
    net = Net_state.freeze t.net;
    stepper = Engine.Stepper.freeze t.stepper;
    injector = Option.map Injector.freeze t.injector;
    admission = Admission.freeze t.admission;
    deferred = t.deferred;
    source = Source.freeze t.source;
  }

let save_checkpoint ?fault ?keep t path =
  let hash = Checkpoint.Chain.save ?fault ?keep path (snapshot t) in
  Counters.incr Counters.Serve_checkpoints;
  hash

let run ?checkpoint_path ?(checkpoint_every = 0) ~ticks t =
  for _ = 1 to ticks do
    tick t;
    match checkpoint_path with
    | Some path when checkpoint_every > 0 && t.tick_count mod checkpoint_every = 0
      ->
        ignore (save_checkpoint t path : string)
    | _ -> ()
  done

(* Completion ticks poll nothing and journal nothing: they are a pure
   function of controller state, so recovery reproduces them without
   any record. *)
let complete ?(max_ticks = 1_000_000) t =
  let n = ref 0 in
  while not (quiescent t) do
    if !n >= max_ticks then
      failwith
        (Printf.sprintf "Serve.complete: not quiescent after %d ticks"
           max_ticks);
    incr n;
    execute_tick t []
  done

(* ------------------------------------------------------------------ *)
(* Restore + replay.                                                   *)

let restore_snapshot ?source_params ?series ?telemetry ?retry ~config:cfg
    ~source_spec ~topology cp =
  let* () = try Ok (validate_config cfg) with Invalid_argument m -> Error m in
  let expected = fingerprint cfg source_spec in
  if not (fingerprint_matches cp.Checkpoint.meta expected) then
    Error
      (Printf.sprintf
         "checkpoint configuration mismatch:\n  checkpoint: %s\n  requested:  %s"
         (Json.to_string cp.Checkpoint.meta)
         (Json.to_string expected))
  else
    match
      let host_count = Topology.host_count topology in
      let net = Net_state.thaw topology cp.Checkpoint.net in
      let injector =
        Option.map (Injector.thaw ?retry) cp.Checkpoint.injector
      in
      let stepper =
        Engine.Stepper.thaw ~domains:cfg.domains
          ?churn:(engine_churn ~host_count cfg.churn)
          ~co_max_cost_mbit:cfg.co_max_cost_mbit
          ~estimate_cache:cfg.estimate_cache ?injector ?series
          ?observer:(Option.map Telemetry.observer telemetry)
          ~net cp.Checkpoint.stepper
      in
      let admission =
        Admission.thaw ~capacity:cfg.admission_capacity
          ~policy:cfg.admission_policy cp.Checkpoint.admission
      in
      let source =
        Source.thaw ?params:source_params ~host_count source_spec
          cp.Checkpoint.source
      in
      {
        cfg;
        topology;
        net;
        source_spec;
        source_params;
        source;
        admission;
        stepper;
        injector;
        telemetry;
        journal = None;
        deferred = cp.Checkpoint.deferred;
        tick_count = cp.Checkpoint.tick;
      }
    with
    | t -> Ok t
    | exception Invalid_argument m -> Error ("checkpoint restore: " ^ m)

let restore ?source_params ?series ?telemetry ?retry ?fault ~config
    ~source_spec ~topology path =
  let* cp = Checkpoint.load ?fault ~graph:topology.Topology.graph path in
  restore_snapshot ?source_params ?series ?telemetry ?retry ~config
    ~source_spec ~topology cp

let request_eq a b =
  Json.to_string (Codec.request_to_json a) = Json.to_string (Codec.request_to_json b)

let committed_groups ?upto t entries =
  List.filter
    (fun (k, _) ->
      k >= t.tick_count && match upto with None -> true | Some u -> k < u)
    (Journal.committed_ticks entries)

(* Strict: any gap or divergence is an error. *)
let replay_entries ?upto t entries =
  let rec go n = function
    | [] -> Ok n
    | (k, journaled) :: rest ->
        if k <> t.tick_count then
          Error
            (Printf.sprintf
               "journal gap: expected tick %d, found committed tick %d"
               t.tick_count k)
        else begin
          (* Re-poll to advance the deterministic source cursor, and
             validate it regenerates exactly what the journal recorded —
             the journaled requests stay authoritative either way. *)
          let polled = Source.poll t.source ~tick:t.tick_count ~now_s:(now_s t) in
          if
            List.length polled <> List.length journaled
            || not (List.for_all2 request_eq polled journaled)
          then
            Error
              (Printf.sprintf
                 "replay divergence at tick %d: source regenerated %d \
                  request(s), journal recorded %d (or contents differ)"
                 k (List.length polled) (List.length journaled))
          else begin
            execute_tick t journaled;
            go (n + 1) rest
          end
        end
  in
  go 0 (committed_groups ?upto t entries)

(* Tolerant: replay the longest clean prefix and stop at the first gap
   or divergence (corruption ate a frame there) — the remaining ticks
   are re-served live from the deterministic source. A stop rewinds
   the source to its pre-poll cursor, because the mismatched poll
   already consumed PRNG draws the live re-serve must make again. *)
let replay_prefix t entries =
  let host_count = Topology.host_count t.topology in
  let rec go n = function
    | [] -> (n, None)
    | (k, journaled) :: rest ->
        if k <> t.tick_count then
          (n, Some (Printf.sprintf "journal gap at tick %d (found %d)" t.tick_count k))
        else begin
          let fz = Source.freeze t.source in
          let polled = Source.poll t.source ~tick:t.tick_count ~now_s:(now_s t) in
          if
            List.length polled <> List.length journaled
            || not (List.for_all2 request_eq polled journaled)
          then begin
            t.source <-
              Source.thaw ?params:t.source_params ~host_count t.source_spec fz;
            (n, Some (Printf.sprintf "journal divergence at tick %d" k))
          end
          else begin
            execute_tick t journaled;
            go (n + 1) rest
          end
        end
  in
  go 0 (committed_groups t entries)

let replay ?upto ~journal t =
  let* report = Journal.read_report journal in
  if report.Journal.corrupt <> [] then
    Counters.add_named "store.frames_corrupt"
      (List.length report.Journal.corrupt);
  replay_entries ?upto t report.Journal.entries
