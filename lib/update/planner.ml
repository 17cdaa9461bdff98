module Trace = Nu_obs.Trace
module Counters = Nu_obs.Counters
module Histogram = Nu_obs.Histogram

type admission = Desired_first | Scan_first

let admission_name = function
  | Desired_first -> "desired-first"
  | Scan_first -> "scan-first"

type config = {
  policy : Routing.policy;
  order : Migration.order;
  admission : admission;
}

let default_config =
  {
    policy = Routing.First_fit;
    order = Migration.Best_fit_first;
    admission = Desired_first;
  }

(* Candidate paths tried with migration before an item fails. *)
let max_clear_attempts = 4

type failure_reason =
  | No_candidate_path
  | Could_not_free
  | Flow_not_placed
  | Already_placed

type outcome =
  | Installed of { path : Path.t; moves : Migration.move list }
  | Rerouted of {
      from_path : Path.t;
      to_path : Path.t;
      moves : Migration.move list;
    }
  | Failed of failure_reason

type item_plan = { work : Event.work; outcome : outcome }

type t = {
  event : Event.t;
  items : item_plan list;
  cost_mbit : float;
  move_count : int;
  failed_count : int;
  transfer_mbit : float;
  rule_hops : int;
  work_units : int;
}

(* Per-domain planning scratch, reused by every plan on the domain
   (probes run on pool workers, so it cannot be global): the flow ids
   the plan has made untouchable, and per-candidate columns for the
   item being planned. A plan never starts another plan, so one set per
   domain suffices; [plan] clears [touched] on entry. *)
type scratch = {
  touched : (int, unit) Hashtbl.t;
  mutable gaps : float array;  (* each member's gap ([fill_gaps]) *)
  mutable member : Bytes.t;  (* '\001': in the item's candidate set *)
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        touched = Hashtbl.create 64;
        gaps = Array.make 64 0.0;
        member = Bytes.make 64 '\000';
      })

(* [s]'s columns sized for [n] candidates, every one a member. *)
let reset_columns s n =
  if Array.length s.gaps < n then begin
    s.gaps <- Array.make n 0.0;
    s.member <- Bytes.make n '\000'
  end;
  Bytes.fill s.member 0 n '\001'

let[@inline] is_member s i = Bytes.unsafe_get s.member i = '\001'

(* Candidates ranked by how much migration they would need: the sum of
   positive capacity gaps is a cheap proxy for the migrated traffic a
   clearing will cost (paper: prefer the desired path needing the least
   local adjustment). [fill_gaps] reads every member's gap once, before
   any clearing; [next_by_gap] then walks the members in (gap, index)
   order under [Float.compare], which is the order a stable sort of the
   members by gap gives, one step at a time and with no list. *)
let fill_gaps net s ~demand c =
  for i = 0 to Net_state.candidate_count c - 1 do
    if is_member s i then Net_state.candidate_gap net c i ~demand ~into:s.gaps
  done

(* The member after [prev] in (gap, index) order ([prev] = -1: the
   first); -1 when none is left. *)
let next_by_gap s n prev =
  let g = s.gaps and best = ref (-1) in
  for i = 0 to n - 1 do
    if
      is_member s i
      && (prev < 0
         ||
         let o = Float.compare g.(i) g.(prev) in
         o > 0 || (o = 0 && i > prev))
      && (!best < 0 || Float.compare g.(i) g.(!best) < 0)
    then best := i
  done;
  !best

(* Admission is straight-line code over the flow's candidate view
   (indices into {!Net_state.candidates}; a full path is built only to
   place, reroute or clear it). [Failed Could_not_free] is the "not yet"
   of each step, so no step allocates an option or a closure. The
   steps' order is the admission mode's: see [plan_install] and
   [plan_reroute]. *)

let install net record path moves =
  match Net_state.place net record path with
  | Ok () -> Installed { path; moves }
  | Error _ -> assert false (* checked feasible *)

(* Migrate flows off candidate [i], then commit the item there:
   clear_path freed the gap measured against the full demand, so the
   place, or the reroute (which also releases the flow's own share),
   cannot fail. A reroute passes [exclude] with the flow itself added:
   it must not be migrated to make room for itself. *)
let clear_commit ~config ~work_units ~exclude net work ~demand c i =
  let path = Net_state.candidate_path net c i in
  let avoid =
    match work with
    | Event.Install _ -> Event.Unconstrained
    | Event.Reroute { avoid; _ } -> avoid
  in
  match
    Migration.clear_path ~order:config.order ~policy:config.policy ~avoid
      ~work_units net ~demand ~path ~exclude
  with
  | Error _ -> Failed Could_not_free
  | Ok moves -> (
      match work with
      | Event.Install record -> install net record path moves
      | Event.Reroute { flow_id; _ } -> (
          incr work_units;
          match Net_state.reroute net flow_id path with
          | Ok from_path -> Rerouted { from_path; to_path = path; moves }
          | Error _ -> assert false))

(* Clear-then-commit on the [max_clear_attempts] cheapest members by
   gap, skipping [skip] (the desired candidate, already tried); [k]
   counts the ranked members taken, [skip] included. *)
let rec clear_ranked ~config ~work_units ~exclude net work ~demand c s ~skip
    ~prev k =
  if k >= max_clear_attempts then Failed Could_not_free
  else
    match next_by_gap s (Net_state.candidate_count c) prev with
    | -1 -> Failed Could_not_free
    | i -> (
        match
          if i = skip then Failed Could_not_free
          else clear_commit ~config ~work_units ~exclude net work ~demand c i
        with
        | Failed _ ->
            clear_ranked ~config ~work_units ~exclude net work ~demand c s
              ~skip ~prev:i (k + 1)
        | o -> o)

let ranked_clears ~config ~work_units ~exclude net work ~demand c s ~skip =
  fill_gaps net s ~demand c;
  clear_ranked ~config ~work_units ~exclude net work ~demand c s ~skip
    ~prev:(-1) 0

(* An install ranks every candidate. *)
let ranked_installs ~config ~work_units ~exclude net work ~demand c ~skip =
  let s = Domain.DLS.get scratch_key in
  reset_columns s (Net_state.candidate_count c);
  ranked_clears ~config ~work_units ~exclude net work ~demand c s ~skip

(* The other free candidates, in the policy's choice. *)
let scan_install ~config ~work_units net record ~demand c =
  incr work_units;
  match
    Routing.select_from ~policy:config.policy ~eligible:(fun _ -> true) net
      ~demand c
  with
  | -1 -> Failed Could_not_free
  | i -> install net record (Net_state.candidate_path net c i) []

let plan_install ~config ~work_units ~exclude net work record =
  let demand = Flow_record.demand_mbps record in
  if Net_state.is_placed net record.Flow_record.id then Failed Already_placed
  else
    let c = Net_state.candidates net record in
    if Net_state.candidate_count c = 0 then Failed No_candidate_path
    else
      match config.admission with
      | Desired_first -> (
          (* The paper's order: desired path direct, then local
             migration on the desired path, then the other free
             candidates, then migration on the cheapest other paths. *)
          let d = Routing.desired record c in
          incr work_units;
          if Net_state.candidate_feasible net c d ~demand then
            install net record (Net_state.candidate_path net c d) []
          else
            match
              clear_commit ~config ~work_units ~exclude net work ~demand c d
            with
            | Installed _ as o -> o
            | _ -> (
                match scan_install ~config ~work_units net record ~demand c with
                | Installed _ as o -> o
                | _ ->
                    ranked_installs ~config ~work_units ~exclude net work
                      ~demand c ~skip:d))
      | Scan_first -> (
          match scan_install ~config ~work_units net record ~demand c with
          | Installed _ as o -> o
          | _ ->
              ranked_installs ~config ~work_units ~exclude net work ~demand c
                ~skip:(-1))

(* Reroute the flow onto candidate [i] when it fits; the path is built
   only then. [placed] is the flow's placement, which no step before a
   commit changes. *)
let direct_reroute ~work_units net (placed : Net_state.placed) c i =
  incr work_units;
  if Net_state.candidate_reroutable net placed c i then
    let to_path = Net_state.candidate_path net c i in
    match Net_state.reroute net placed.record.Flow_record.id to_path with
    | Ok from_path -> Rerouted { from_path; to_path; moves = [] }
    | Error _ -> assert false (* candidate_reroutable said it fits *)
  else Failed Could_not_free

(* The members from [i] on, in rank order, but [skip]. *)
let rec direct_rest ~work_units net placed c s ~skip i =
  if i >= Net_state.candidate_count c then Failed Could_not_free
  else
    match
      if i <> skip && is_member s i then direct_reroute ~work_units net placed c i
      else Failed Could_not_free
    with
    | Failed _ -> direct_rest ~work_units net placed c s ~skip (i + 1)
    | o -> o

(* Index of the [k]-th member (from 0). *)
let nth_member s k =
  let i = ref (-1) and seen = ref (-1) in
  while !seen < k do
    incr i;
    if is_member s !i then incr seen
  done;
  !i

let plan_reroute ~config ~work_units ~exclude net work ~flow_id ~avoid =
  match Net_state.flow net flow_id with
  | None -> Failed Flow_not_placed
  | Some placed ->
      let demand = Flow_record.demand_mbps placed.record in
      let c = Net_state.candidates net placed.record in
      let n = Net_state.candidate_count c in
      (* The members: candidates that respect [avoid] and differ from
         the flow's current path. *)
      let s = Domain.DLS.get scratch_key in
      reset_columns s n;
      let m = ref 0 in
      for i = 0 to n - 1 do
        if
          Event.candidate_respects net c i avoid
          && not (Net_state.candidate_is c i placed.path)
        then incr m
        else Bytes.set s.member i '\000'
      done;
      if !m = 0 then Failed No_candidate_path
      else
        let exclude id = id = flow_id || exclude id in
        match config.admission with
        | Desired_first -> (
            let d = nth_member s (Routing.ecmp_index placed.record ~n:!m) in
            match direct_reroute ~work_units net placed c d with
            | Rerouted _ as o -> o
            | _ -> (
                match
                  clear_commit ~config ~work_units ~exclude net work ~demand c d
                with
                | Rerouted _ as o -> o
                | _ -> (
                    match direct_rest ~work_units net placed c s ~skip:d 0 with
                    | Rerouted _ as o -> o
                    | _ ->
                        ranked_clears ~config ~work_units ~exclude net work
                          ~demand c s ~skip:d)))
        | Scan_first -> (
            match direct_rest ~work_units net placed c s ~skip:(-1) 0 with
            | Rerouted _ as o -> o
            | _ ->
                ranked_clears ~config ~work_units ~exclude net work ~demand c s
                  ~skip:(-1))

(* Flow ids an item's outcome makes untouchable for later items: the
   item's own flow and its make-room moves. *)
let rec mark_moves touched = function
  | [] -> ()
  | (m : Migration.move) :: rest ->
      Hashtbl.replace touched m.flow_id ();
      mark_moves touched rest

let plan_item ~config ~work_units ~exclude touched net work =
  let outcome =
    match work with
    | Event.Install record ->
        plan_install ~config ~work_units ~exclude net work record
    | Event.Reroute { flow_id; avoid } ->
        plan_reroute ~config ~work_units ~exclude net work ~flow_id ~avoid
  in
  (match (work, outcome) with
  | Event.Install { id; _ }, Installed { moves; _ }
  | Event.Reroute { flow_id = id; _ }, Rerouted { moves; _ } ->
      Hashtbl.replace touched id ();
      mark_moves touched moves
  | _ -> ());
  { work; outcome }

let rec rule_hops_of_moves acc = function
  | [] -> acc
  | (m : Migration.move) :: rest ->
      rule_hops_of_moves (acc + Path.hops m.to_path) rest

let plan ?(config = default_config) ?(frozen = fun _ -> false) net event =
  let sp =
    if Trace.enabled () then
      Some
        (Trace.span "plan"
           ~attrs:
             [
               ("event", Trace.Int event.Event.id);
               ("items", Trace.Int (List.length event.Event.work));
             ])
    else None
  in
  let h_on = Histogram.Registry.enabled () in
  let h_t0 = if h_on then Trace.now_ns () else 0L in
  let work_units = ref 0 in
  let touched = (Domain.DLS.get scratch_key).touched in
  Hashtbl.clear touched;
  let exclude id = frozen id || Hashtbl.mem touched id in
  let items =
    List.map
      (fun work -> plan_item ~config ~work_units ~exclude touched net work)
      event.Event.work
  in
  (* The totals in a loop over local refs, which stay unboxed: a fold
     would box its accumulator tuple and floats at every item. *)
  let cost_mbit = ref 0.0 and move_count = ref 0 and failed_count = ref 0 in
  let transfer_mbit = ref 0.0 and rule_hops = ref 0 and rest = ref items in
  while !rest != [] do
    match !rest with
    | [] -> ()
    | item :: tl -> (
        rest := tl;
        match item.outcome with
        | Installed { path; moves } ->
            let moved = Migration.moves_cost_mbit moves in
            cost_mbit := !cost_mbit +. moved;
            move_count := !move_count + List.length moves;
            transfer_mbit := !transfer_mbit +. moved;
            rule_hops :=
              !rule_hops + Path.hops path + rule_hops_of_moves 0 moves
        | Rerouted { from_path = _; to_path; moves } ->
            let own_size =
              match item.work with
              | Event.Reroute { flow_id; _ } -> (
                  match Net_state.flow net flow_id with
                  | Some placed -> placed.record.Flow_record.size_mbit
                  | None -> 0.0)
              | Event.Install _ -> 0.0
            in
            let moved = Migration.moves_cost_mbit moves in
            cost_mbit := !cost_mbit +. moved;
            move_count := !move_count + List.length moves;
            transfer_mbit := !transfer_mbit +. moved +. own_size;
            rule_hops :=
              !rule_hops + Path.hops to_path + rule_hops_of_moves 0 moves
        | Failed _ -> incr failed_count)
  done;
  let t =
    {
      event;
      items;
      cost_mbit = !cost_mbit;
      move_count = !move_count;
      failed_count = !failed_count;
      transfer_mbit = !transfer_mbit;
      rule_hops = !rule_hops;
      work_units = !work_units;
    }
  in
  Counters.incr Counters.Planner_plans;
  Counters.add Counters.Planner_probes t.work_units;
  if h_on then begin
    Histogram.Registry.record "planner.plan_latency_s"
      (Int64.to_float (Int64.sub (Trace.now_ns ()) h_t0) *. 1e-9);
    Histogram.Registry.record "planner.moves_per_event"
      (float_of_int t.move_count)
  end;
  (match sp with
  | Some sp ->
      Trace.finish sp
        ~attrs:
          [
            ("cost_mbit", Trace.Float t.cost_mbit);
            ("moves", Trace.Int t.move_count);
            ("failed", Trace.Int t.failed_count);
            ("units", Trace.Int t.work_units);
          ]
  | None -> ());
  t

let replay net plan =
  Counters.incr Counters.Plan_replays;
  let replay_move (m : Migration.move) =
    match Net_state.reroute net m.Migration.flow_id m.Migration.to_path with
    | Ok _ -> ()
    | Error _ -> invalid_arg "Planner.replay: state diverged (move)"
  in
  List.iter
    (fun item ->
      match item.outcome with
      | Failed _ -> ()
      | Installed { path; moves } -> (
          List.iter replay_move moves;
          match item.work with
          | Event.Install record -> (
              match Net_state.place net record path with
              | Ok () -> ()
              | Error _ -> invalid_arg "Planner.replay: state diverged (install)")
          | Event.Reroute _ -> assert false)
      | Rerouted { to_path; moves; _ } -> (
          List.iter replay_move moves;
          match item.work with
          | Event.Reroute { flow_id; _ } -> (
              match Net_state.reroute net flow_id to_path with
              | Ok _ -> ()
              | Error _ -> invalid_arg "Planner.replay: state diverged (reroute)")
          | Event.Install _ -> assert false))
    plan.items

type probe = {
  probe_plan : t;
  probe_touched : int array;
}

let probe net event =
  Counters.incr Counters.Cost_estimates;
  let sp =
    if Trace.enabled () then
      Some
        (Trace.span "estimate" ~attrs:[ ("event", Trace.Int event.Event.id) ])
    else None
  in
  let h_on = Histogram.Registry.enabled () in
  let h_t0 = if h_on then Trace.now_ns () else 0L in
  (* Plan speculatively inside a transaction: the undo journal restores
     the state in O(operations performed). The probe bracket records
     every edge the plan read or wrote, which is what makes the plan
     replayable. *)
  Net_state.start_probe net;
  Net_state.begin_txn net;
  let p = plan net event in
  Net_state.rollback net;
  let touched = Net_state.stop_probe net in
  if h_on then
    Histogram.Registry.record "planner.probe_latency_s"
      (Int64.to_float (Int64.sub (Trace.now_ns ()) h_t0) *. 1e-9);
  (match sp with
  | Some sp ->
      Trace.finish sp
        ~attrs:
          [
            ("est_cost_mbit", Trace.Float p.cost_mbit);
            ("est_failed", Trace.Int p.failed_count);
            ("units", Trace.Int p.work_units);
            ("touched_edges", Trace.Int (Array.length touched));
          ]
  | None -> ());
  { probe_plan = p; probe_touched = touched }

let pp ppf t =
  Format.fprintf ppf
    "plan[event#%d: %d items, cost %.1f Mbit, %d moves, %d failed, %d units]"
    t.event.Event.id (List.length t.items) t.cost_mbit t.move_count
    t.failed_count t.work_units
