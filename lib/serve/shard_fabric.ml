(* The serving driver: one fabric, N planners — with one shard, the
   single controller that Serve is.

   The fabric owns N shard controllers — each an Engine.Stepper with
   its own bounded admission queue and write-ahead journal — over ONE
   shared Net_state. A deterministic partition map routes every
   arriving request to its home shard; the shards advance in
   synchronised waves (Engine.Stepper.step_group), and a round whose
   make-room migration set crosses shard boundaries is escalated to the
   global Coord, which commits it against the shared fabric.

   Determinism contract:
   - same config, topology, net and source spec -> bit-identical
     fabric digest (per-shard decision digests folded with the
     coordinator's journal digest);
   - with one shard, routing is the identity, waves degenerate to
     steps, weighted-fair drain degenerates to drain_per_tick and
     nothing ever escalates: the digest is the lone controller's;
   - per-shard write-ahead journals + the checkpoint chain make a
     crash (even a torn shard WAL) recoverable to the uninterrupted
     run's digest: restore the whole fabric from the newest verifiable
     checkpoint, replay every shard's committed ticks up to the common
     commit horizon, re-serve the rest live from the deterministic
     source. *)

module Json = Nu_obs.Json
module Counters = Nu_obs.Counters
module Histogram = Nu_obs.Histogram
module Watch = Nu_obs.Watch
module Store = Nu_obs.Store
module Injector = Nu_fault.Injector

let ( let* ) = Result.bind

type config = {
  base : Serve_config.config;  (** Per-shard controller knobs. *)
  shards : int;
  regions : int;
}

let default_config ?(regions = 8) base ~shards =
  { base; shards; regions = max regions shards }

let validate_config cfg =
  Serve_config.validate_config cfg.base;
  if cfg.shards < 1 then invalid_arg "Shard_fabric: shards must be >= 1";
  if cfg.regions < cfg.shards then
    invalid_arg "Shard_fabric: regions must be >= shards"

(* The serving identity stored as checkpoint [meta] and validated on
   restore: a restore under a different configuration or source spec is
   refused rather than silently diverging. [domains] is not part of it —
   decisions are width-independent. The [coord] section keeps the
   retired veto threshold and attempt budget at their old defaults,
   the only values a production caller ever ran with, so checkpoint
   bytes do not move. *)
let fingerprint cfg spec =
  Json.Obj
    [
      ("config", Serve_config.config_to_json cfg.base);
      ("source", Serve_config.spec_to_json spec);
      ("shards", Json.Int cfg.shards);
      ("regions", Json.Int cfg.regions);
      ( "coord",
        Json.Obj
          [ ("veto_backlog", Json.Int 512); ("max_attempts", Json.Int 3) ] );
    ]

(* Journal namespace: with two or more shards, shard k's WAL segments
   live under <base>.shard<k> and the coordinator's audit log under
   <base>.coord.jsonl; one shard journals at <base> itself and has no
   coordinator journal. *)
let shard_journal_path base k = Printf.sprintf "%s.shard%d" base k
let coord_journal_path base = base ^ ".coord.jsonl"
let wal_path cfg base k = if cfg.shards = 1 then base else shard_journal_path base k

type t = {
  cfg : config;
  topology : Topology.t;
  net : Net_state.t;
  source_spec : Source.spec;
      (* Kept so a replay stop can rewind the source cursor by
         re-thawing a pre-poll freeze. *)
  mutable source : Source.t;
  partition : Partition.t;
  coord : Coord.t;
  steppers : Engine.Stepper.t array;
  admissions : Admission.t array;
  deferred : Request.t list array;
  journals : Journal.writer option array;
  injector : Injector.t option;  (* one shard only *)
  telemetry : Telemetry.t option;
      (* Recording-only; deliberately absent from the fingerprint so
         journals replay regardless of telemetry. *)
  mutable tick_count : int;
}

(* Shard k's engine-side observer. With two or more shards, a
   per-shard ECT stream feeds the watch layer (tenant "shard<k>") on
   top of the regular telemetry observations; one shard observes
   exactly like a lone controller. Recording only — never
   decision-relevant. *)
let shard_observer cfg telemetry k =
  Option.map
    (fun tel ->
      if cfg.shards = 1 then Telemetry.observer tel
      else fun obs ->
        (match obs with
        | Engine.Event_completed { result; _ } -> (
            match Telemetry.watch tel with
            | Some w ->
                Watch.observe_ect w
                  ~tenant:("shard" ^ string_of_int k)
                  ~ect_s:(Engine.ect result)
            | None -> ())
        | _ -> ());
        Telemetry.observer tel obs)
    telemetry

(* Shard k's churn: the churn-owning shard (0) runs the base spec and
   expires the pre-placed flows; every other shard shares the exact
   flow generator but with a zero refill setpoint and no initial
   expiry, so churn placements happen once and ids never collide. *)
let shard_churn ~host_count base k =
  match Serve_config.engine_churn ~host_count base.Serve_config.churn with
  | None -> None
  | Some ch ->
      if k = 0 then Some ch
      else Some { ch with Engine.target_utilization = 0.0 }

let shard_seed base k =
  if k = 0 then base.Serve_config.engine_seed
  else base.Serve_config.engine_seed + (k * 7919)

(* Shard 0 carries the fault injector (one shard only) and the probe
   pool: a wave fans out through its first stepper's workers, so shard 0
   gets the fabric's domains and every other shard one. *)
let shard_domains base k = if k = 0 then base.Serve_config.domains else 1

let make_stepper ?injector ?telemetry cfg ~host_count ~net k =
  let base = cfg.base in
  Engine.Stepper.create ~seed:(shard_seed base k)
    ~domains:(shard_domains base k)
    ?churn:(shard_churn ~host_count base k)
    ~init_expiry:(k = 0)
    ?injector:(if k = 0 then injector else None)
    ?observer:(shard_observer cfg telemetry k)
    ~net base.Serve_config.policy

let thaw_stepper ?injector ?telemetry cfg ~host_count ~net k fz =
  let base = cfg.base in
  Engine.Stepper.thaw ~domains:(shard_domains base k)
    ?churn:(shard_churn ~host_count base k)
    ?injector:(if k = 0 then injector else None)
    ?observer:(shard_observer cfg telemetry k)
    ~net fz

let create ?injector ?telemetry ?journal ?journal_base
    cfg ~topology ~net ~source_spec =
  validate_config cfg;
  if cfg.shards > 1 && injector <> None then
    invalid_arg "Shard_fabric: fault injection needs exactly one shard";
  if journal <> None && (cfg.shards > 1 || journal_base <> None) then
    invalid_arg
      "Shard_fabric: a ready journal writer serves one shard, without \
       journal_base";
  let host_count = Topology.host_count topology in
  let partition =
    Partition.create ~host_count ~regions:cfg.regions ~shards:cfg.shards
  in
  let source = Source.create ~host_count source_spec in
  let steppers =
    Array.init cfg.shards (make_stepper ?injector ?telemetry cfg ~host_count ~net)
  in
  let admissions =
    Array.init cfg.shards (fun _ ->
        Admission.create ~capacity:cfg.base.Serve_config.admission_capacity)
  in
  let journals =
    match (journal, journal_base) with
    | Some w, _ -> [| Some w |]
    | None, Some base ->
        Array.init cfg.shards (fun k ->
            Some (Journal.open_writer (wal_path cfg base k)))
    | None, None -> Array.make cfg.shards None
  in
  let coord_sink =
    match journal_base with
    | Some base when cfg.shards > 1 ->
        Some (Store.open_writer (coord_journal_path base))
    | _ -> None
  in
  let coord =
    Coord.create ?sink:coord_sink
      ~seed:(cfg.base.Serve_config.engine_seed lxor 0x5eed)
      ()
  in
  {
    cfg;
    topology;
    net;
    source_spec;
    source;
    partition;
    coord;
    steppers;
    admissions;
    deferred = Array.make cfg.shards [];
    journals;
    injector;
    telemetry;
    tick_count = 0;
  }

let tick_count t = t.tick_count
let now_s t = float_of_int t.tick_count *. t.cfg.base.Serve_config.tick_dt_s
let coord t = t.coord
let shard_count t = t.cfg.shards
let stepper t k = t.steppers.(k)
let admission t k = t.admissions.(k)

let backlog t k =
  Admission.size t.admissions.(k) + Engine.Stepper.backlog t.steppers.(k)

let deferred_count t =
  Array.fold_left (fun n d -> n + List.length d) 0 t.deferred

let quiescent t =
  Array.for_all (fun a -> Admission.size a = 0) t.admissions
  && Array.for_all (fun d -> d = []) t.deferred
  && Array.for_all (fun st -> not (Engine.Stepper.has_work st)) t.steppers

let completed t =
  Array.fold_left (fun n st -> n + Engine.Stepper.completed st) 0 t.steppers
  + List.length (Coord.results t.coord)

(* The fabric digest: per-shard decision digests in shard order, plus
   the coordinator's journal digest when it ever decided anything.
   Run_digest.combine passes a singleton through unchanged, so a
   one-shard fabric (whose coordinator is structurally idle) digests
   exactly like its lone controller. *)
let shard_digests t =
  Array.to_list
    (Array.map (fun st -> Run_digest.of_run (Engine.Stepper.result st)) t.steppers)

let digest t =
  let ds = shard_digests t in
  Run_digest.combine
    (if Coord.entries t.coord > 0 then ds @ [ Coord.digest t.coord ] else ds)

(* ------------------------------------------------------------------ *)
(* Weighted-fair drain.                                                *)

(* Apportion the fabric drain budget across shards in proportion to
   admission backlog, largest-remainder, ties to the lower shard
   index; quotas are capped at the backlog and freed capacity is
   re-dealt round-robin to shards that can still use it. Pure, total:
   sum quota = min budget (sum backlogs), quota.(k) <= backlogs.(k).
   With one shard this is min budget backlog — exactly Serve's
   drain_per_tick cap. *)
let apportion ~budget ~backlogs =
  let n = Array.length backlogs in
  let total = Array.fold_left ( + ) 0 backlogs in
  let quota = Array.make n 0 in
  if total > 0 && budget > 0 then begin
    let rem = Array.make n 0 in
    let assigned = ref 0 in
    for k = 0 to n - 1 do
      let num = budget * backlogs.(k) in
      quota.(k) <- num / total;
      rem.(k) <- num mod total;
      assigned := !assigned + quota.(k)
    done;
    let order = Array.init n (fun i -> i) in
    Array.sort
      (fun a b ->
        match compare rem.(b) rem.(a) with 0 -> compare a b | c -> c)
      order;
    let left = ref (budget - !assigned) in
    Array.iter
      (fun k ->
        if !left > 0 then begin
          quota.(k) <- quota.(k) + 1;
          decr left
        end)
      order;
    (* Cap at backlog, then re-deal the freed capacity round-robin. *)
    for k = 0 to n - 1 do
      if quota.(k) > backlogs.(k) then quota.(k) <- backlogs.(k)
    done;
    let spent = Array.fold_left ( + ) 0 quota in
    let left = ref (min budget total - spent) in
    let progressed = ref true in
    while !left > 0 && !progressed do
      progressed := false;
      for k = 0 to n - 1 do
        if !left > 0 && quota.(k) < backlogs.(k) then begin
          quota.(k) <- quota.(k) + 1;
          decr left;
          progressed := true
        end
      done
    done
  end;
  quota
(* ------------------------------------------------------------------ *)
(* Escalation predicate.                                               *)

(* A flow's home shard: the shard owning its source host's region.
   None once the flow has left the network. *)
let shard_of_flow t fid =
  match Net_state.flow t.net fid with
  | Some placed ->
      Some
        (Partition.shard_of_region t.partition
           (Partition.region_of_host t.partition
              placed.Net_state.record.Flow_record.src))
  | None -> None

(* A winner crosses shards iff its make-room migration set touches a
   flow homed on another shard — the two-level planner's boundary. A
   pure function of the migration set and the live flow table, so
   replay reproduces every escalation decision. *)
let crosses_shards t ~shard moved =
  List.exists
    (fun fid ->
      match shard_of_flow t fid with
      | Some home -> home <> shard
      | None -> false)
    moved

(* The coordinator's completion callback: the home shard registers the
   plan's churn departures and telemetry sees the completion. *)
let on_coord_commit t ~home ~result plan =
  Engine.Stepper.register_departures t.steppers.(home)
    ~completion:result.Engine.completion_s plan;
  match t.telemetry with
  | Some tel ->
      Telemetry.observer tel
        (Engine.Event_completed { result; degraded = false })
  | None -> ()

(* One tick's admission + execution for already-routed (journaled or
   replayed) arrivals. Per shard: deferred requests re-offer ahead of
   fresh arrivals (so Block cannot reorder a tenant's stream), then a
   drain, then up to [steps_per_tick] rounds. Across shards the drain
   budget is apportioned by backlog and the steppers advance in
   synchronised waves. *)
let execute_tick t routed =
  let tick = t.tick_count in
  let now = now_s t in
  (match t.telemetry with
  | Some tel ->
      Telemetry.on_tick_start tel ~tick ~now_s:now;
      Array.iter (List.iter (Telemetry.on_arrival tel)) routed
  | None -> ());
  (* Admission, shard by shard; deferred requests re-offer first. *)
  Array.iteri
    (fun k fresh ->
      let candidates = t.deferred.(k) @ fresh in
      t.deferred.(k) <- [];
      let deferred_rev = ref [] in
      List.iter
        (fun req ->
          let outcome = Admission.offer t.admissions.(k) ~tick req in
          (match t.telemetry with
          | Some tel -> Telemetry.on_admission tel req outcome
          | None -> ());
          match outcome with
          | Admission.Admitted -> Counters.incr Counters.Serve_admitted
          | Admission.Deferred ->
              Counters.incr Counters.Serve_deferred;
              deferred_rev := req :: !deferred_rev)
        candidates;
      t.deferred.(k) <- List.rev !deferred_rev)
    routed;
  (* Weighted-fair drain: the fabric budget splits by backlog. *)
  let backlogs = Array.map Admission.size t.admissions in
  let budget = t.cfg.base.Serve_config.drain_per_tick * t.cfg.shards in
  let quotas = apportion ~budget ~backlogs in
  Array.iteri
    (fun k quota ->
      if quota > 0 then begin
        let drained = Admission.drain t.admissions.(k) ~max:quota in
        if drained <> [] then begin
          Counters.add Counters.Serve_drained (List.length drained);
          if Histogram.Registry.enabled () then
            List.iter
              (fun (_, enq_tick) ->
                Histogram.Registry.record "serve.admission_wait_s"
                  (float_of_int (tick - enq_tick)
                  *. t.cfg.base.Serve_config.tick_dt_s))
              drained;
          (match t.telemetry with
          | Some tel ->
              List.iter
                (fun (req, enq_tick) ->
                  Telemetry.on_drain tel req ~wait_ticks:(tick - enq_tick))
                drained
          | None -> ());
          Engine.Stepper.submit t.steppers.(k)
            (List.map (fun (req, _) -> req.Request.event) drained)
        end
      end)
    quotas;
  (* Synchronised waves. Cross-shard winners commit inline through the
     coordinator, which applies the wave's own probed plan inside a
     fabric transaction, so nothing is planned twice. One shard never
     escalates. *)
  let escalate =
    if t.cfg.shards = 1 then None
    else
      Some
        (fun ~shard ~event ~plan ~txn_open ~attempt ->
          if crosses_shards t ~shard (Coord.moved_flow_ids plan) then begin
            Coord.commit_escalated t.coord ~net:t.net ~tick
              ~now_floor_s:(now_s t) ~home:shard ~event
              ~shard_of_flow:(shard_of_flow t) ~txn_open ~attempt
              ~on_commit:(on_coord_commit t);
            true
          end
          else false)
  in
  let steps = ref 0 in
  let continue = ref true in
  while !continue && !steps < t.cfg.base.Serve_config.steps_per_tick do
    (match
       Engine.Stepper.step_group ?escalate t.steppers
     with
    | `Stepped -> incr steps
    | `Idle -> continue := false);
    (* Wave barrier: every shard reads the fabric-wide clock, so a
       shard whose winners keep escalating still sees time pass and
       its background churn tracks the fabric. *)
    let now_max =
      Array.fold_left
        (fun acc st -> Float.max acc (Engine.Stepper.now_s st))
        (Coord.now_s t.coord) t.steppers
    in
    Array.iter
      (fun st -> Engine.Stepper.advance_clock st ~to_s:now_max)
      t.steppers
  done;
  let queue = Array.fold_left (fun n a -> n + Admission.size a) 0 t.admissions in
  let engine_backlog =
    Array.fold_left (fun n st -> n + Engine.Stepper.backlog st) 0 t.steppers
  in
  if Histogram.Registry.enabled () then begin
    Histogram.Registry.record "serve.queue_depth" (float_of_int queue);
    Histogram.Registry.record "serve.engine_backlog"
      (float_of_int engine_backlog)
  end;
  (match t.telemetry with
  | Some tel ->
      Telemetry.on_tick_end tel ~tick ~queue ~backlog:engine_backlog
  | None -> ());
  Counters.incr Counters.Serve_ticks;
  t.tick_count <- t.tick_count + 1

(* Home shard of every arrival, oldest-first within a shard. Pure:
   replay checks a routing against the journals before counting it. *)
let route t arrivals =
  let routed = Array.make t.cfg.shards [] in
  List.iter
    (fun req ->
      let k = Partition.home_of_event t.partition req.Request.event in
      routed.(k) <- req :: routed.(k))
    (List.rev arrivals);
  routed

let tick t =
  let arrivals = Source.poll t.source ~tick:t.tick_count ~now_s:(now_s t) in
  let routed = route t arrivals in
  (* Write-ahead per shard: arrivals are durable before any decision
     acts on them, and each shard journals exactly its own slice, so a
     single controller's recovery never depends on a sibling's WAL
     being readable. The Tick_done marker commits the tick. *)
  Array.iteri
    (fun k w ->
      match w with
      | Some w ->
          List.iter
            (fun req ->
              Journal.write w
                (Journal.Arrive { tick = t.tick_count; request = req }))
            routed.(k);
          Store.flush w
      | None -> ())
    t.journals;
  execute_tick t routed;
  Array.iter
    (fun w ->
      match w with
      | Some w ->
          Journal.write w (Journal.Tick_done (t.tick_count - 1));
          Store.flush w
      | None -> ())
    t.journals

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
    injector = Option.map Injector.freeze t.injector;
    source = Source.freeze t.source;
    shards =
      List.init t.cfg.shards (fun k ->
          {
            Checkpoint.stepper = Engine.Stepper.freeze t.steppers.(k);
            admission = Admission.freeze t.admissions.(k);
            deferred = t.deferred.(k);
          });
    coord = Coord.freeze t.coord;
  }

let save_checkpoint t ~path =
  ignore (Checkpoint.Chain.save path (snapshot t) : string)

let run ?checkpoint_path ?(checkpoint_every = 0) t ~ticks =
  for _ = 1 to ticks do
    tick t;
    match checkpoint_path with
    | Some path when checkpoint_every > 0 && t.tick_count mod checkpoint_every = 0
      ->
        save_checkpoint t ~path
    | _ -> ()
  done

(* Completion ticks poll nothing and journal nothing — pure functions
   of fabric state, reproduced by recovery without any record. *)
(* A bound on completion ticks: draining never takes this long unless
   the fabric cannot make progress. *)
let max_complete_ticks = 1_000_000

let complete t =
  let n = ref 0 in
  let empty = Array.make t.cfg.shards [] in
  while not (quiescent t) do
    if !n >= max_complete_ticks then
      failwith
        (Printf.sprintf "Shard_fabric.complete: not quiescent after %d ticks"
           max_complete_ticks);
    incr n;
    execute_tick t empty
  done

let set_journal t k w = t.journals.(k) <- w

let kill_shard_journal t k =
  match t.journals.(k) with
  | Some w ->
      Store.abort w;
      t.journals.(k) <- None
  | None -> ()

let close t =
  Array.iter Engine.Stepper.close t.steppers;
  Array.iteri
    (fun k w ->
      match w with
      | Some w ->
          Store.close w;
          t.journals.(k) <- None
      | None -> ())
    t.journals;
  Coord.close t.coord

let retire t =
  let results =
    Array.to_list (Array.map (fun st -> Engine.Stepper.result st) t.steppers)
  in
  List.iter (fun r -> Engine.record_event_histograms r.Engine.events) results;
  (match t.telemetry with Some tel -> Telemetry.on_retire tel | None -> ());
  close t;
  results

(* ------------------------------------------------------------------ *)
(* Restore + replay.                                                   *)

let thaw_fabric ?telemetry ?retry cfg ~topology ~source_spec
    (cp : Checkpoint.t) =
  let* () = try Ok (validate_config cfg) with Invalid_argument m -> Error m in
  let expected = fingerprint cfg source_spec in
  if not (Serve_config.fingerprint_matches cp.meta expected) then
    Error
      (Printf.sprintf
         "checkpoint configuration mismatch:\n  checkpoint: %s\n  requested:  %s"
         (Json.to_string cp.meta) (Json.to_string expected))
  else if List.length cp.shards <> cfg.shards then
    Error "checkpoint shard count mismatch"
  else
    match
      let host_count = Topology.host_count topology in
      let net = Net_state.thaw topology cp.net in
      let injector = Option.map (Injector.thaw ?retry) cp.injector in
      let shards = Array.of_list cp.shards in
      {
        cfg;
        topology;
        net;
        source_spec;
        source = Source.thaw ~host_count source_spec cp.source;
        partition =
          Partition.create ~host_count ~regions:cfg.regions ~shards:cfg.shards;
        coord = Coord.thaw cp.coord;
        steppers =
          Array.mapi
            (fun k (sh : Checkpoint.shard) ->
              thaw_stepper ?injector ?telemetry cfg ~host_count ~net k
                sh.stepper)
            shards;
        admissions =
          Array.map
            (fun (sh : Checkpoint.shard) ->
              Admission.thaw
                ~capacity:cfg.base.Serve_config.admission_capacity sh.admission)
            shards;
        deferred = Array.map (fun (sh : Checkpoint.shard) -> sh.deferred) shards;
        journals = Array.make cfg.shards None;
        injector;
        telemetry;
        tick_count = cp.tick;
      }
    with
    | t -> Ok t
    | exception Invalid_argument m -> Error ("checkpoint restore: " ^ m)

let restore_snapshot cfg ~topology ~source_spec cp =
  thaw_fabric cfg ~topology ~source_spec cp

let committed path =
  let* report = Journal.read_report path in
  let corrupt = List.length report.Journal.corrupt in
  Counters.add Counters.Store_frames_corrupt corrupt;
  Ok (Journal.committed_ticks report.Journal.entries)

let request_eq a b =
  Json.to_string (Codec.request_to_json a)
  = Json.to_string (Codec.request_to_json b)

(* The one replay loop. Walks ticks from the fabric's own up to the
   shards' common commit horizon (and below [upto]): re-poll the
   deterministic source, route, check every shard's slice against what
   its WAL committed, then execute the journaled requests — the record
   stays authoritative. Stops at the first tick some shard never
   committed (a gap: corruption ate its marker) or whose regenerated
   arrivals differ (a divergence); a stop rewinds the source to its
   pre-poll cursor, because the mismatched poll consumed draws the
   live re-serve must make again. *)
let replay_below ?upto t groups =
  let horizon =
    Array.fold_left
      (fun acc g ->
        min acc (List.fold_left (fun h (tk, _) -> max h (tk + 1)) 0 g))
      max_int groups
  in
  let target = match upto with Some u -> min u horizon | None -> horizon in
  (* Groups are in tick order: one cursor per shard keeps the walk
     linear in the journal length. *)
  let cursors = Array.copy groups in
  let group k tk =
    let rec skip = function
      | (g, _) :: rest when g < tk -> skip rest
      | l -> l
    in
    cursors.(k) <- skip cursors.(k);
    match cursors.(k) with
    | (g, reqs) :: _ when g = tk -> Some reqs
    | _ -> None
  in
  let first_shard p =
    let rec go k = if k >= t.cfg.shards then None else if p k then Some k else go (k + 1) in
    go 0
  in
  let rec go n =
    if t.tick_count >= target then (n, None)
    else
      let tk = t.tick_count in
      let journaled = Array.init t.cfg.shards (fun k -> group k tk) in
      match first_shard (fun k -> journaled.(k) = None) with
      | Some k ->
          (n, Some (Printf.sprintf "journal gap at tick %d (shard %d)" tk k))
      | None -> (
          let journaled = Array.map Option.get journaled in
          let fz = Source.freeze t.source in
          let arrivals = Source.poll t.source ~tick:tk ~now_s:(now_s t) in
          let routed = route t arrivals in
          let differs k =
            List.length routed.(k) <> List.length journaled.(k)
            || not (List.for_all2 request_eq routed.(k) journaled.(k))
          in
          match first_shard differs with
          | Some k ->
              t.source <-
                Source.thaw
                  ~host_count:(Topology.host_count t.topology)
                  t.source_spec fz;
              ( n,
                Some
                  (Printf.sprintf
                     "replay divergence at tick %d shard %d: source \
                      regenerated %d request(s), journal recorded %d (or \
                      contents differ)"
                     tk k
                     (List.length routed.(k))
                     (List.length journaled.(k))) )
          | None ->
              execute_tick t journaled;
              go (n + 1))
  in
  go 0

let replay_groups t groups = replay_below t groups

let strict = function n, None -> Ok n | _, Some stop -> Error stop

(* Every shard's committed groups; an unreadable WAL holds none. *)
let read_groups cfg journal_base =
  Array.init cfg.shards (fun k ->
      Result.value (committed (wal_path cfg journal_base k)) ~default:[])

(* Crash recovery: restore the whole fabric from the newest verifiable
   checkpoint generation, replay every shard's committed ticks up to
   the common horizon (stopping early at a gap or divergence), then
   re-roll the per-shard journals — fresh segment chains rewriting
   exactly the replayed groups, never appending past a torn tail. The
   caller re-serves the remaining ticks live; the deterministic source
   makes the continuation bit-identical to the uninterrupted run. *)
let recover ?telemetry ?retry cfg ~topology ~source_spec ~checkpoint_path
    ~journal_base =
  let* cp, _depth =
    Checkpoint.Chain.fallback ~graph:topology.Topology.graph checkpoint_path
  in
  let* t = thaw_fabric ?telemetry ?retry cfg ~topology ~source_spec cp in
  let groups = read_groups cfg journal_base in
  (* Re-attach the coordinator audit sink before replay so regenerated
     decisions land in a fresh log (the pre-checkpoint history lives on
     in the frozen digest cursor). *)
  if cfg.shards > 1 then
    Coord.set_sink t.coord
      (Some (Store.open_writer (coord_journal_path journal_base)));
  let replayed, _stop = replay_groups t groups in
  Array.iteri
    (fun k g ->
      let w = Journal.open_writer (wal_path cfg journal_base k) in
      Journal.write_committed w ~below:t.tick_count g;
      t.journals.(k) <- Some w)
    groups;
  Ok (t, replayed)

(* External audit: rebuild a fabric from its journals (cold-starting
   from [net], or from a checkpoint when one is named) and strictly
   replay every committed tick. *)
let replay ?telemetry ?retry ?checkpoint_path ?upto cfg ~topology ~net
    ~source_spec ~journal_base =
  let* t =
    match checkpoint_path with
    | Some path ->
        let* cp = Checkpoint.load ~graph:topology.Topology.graph path in
        thaw_fabric ?telemetry ?retry cfg ~topology ~source_spec cp
    | None -> (
        try Ok (create ?telemetry cfg ~topology ~net ~source_spec)
        with Invalid_argument m -> Error m)
  in
  let groups = read_groups cfg journal_base in
  if Array.for_all (fun g -> g = []) groups then
    Error
      (Printf.sprintf
         "%s holds no committed tick — the journal is empty, header-only or \
          fully torn; nothing to re-drive"
         journal_base)
  else
    let* n = strict (replay_below ?upto t groups) in
    Ok (t, n)
