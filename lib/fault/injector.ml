module Trace = Nu_obs.Trace

type t = {
  mutable pending : Fault_model.fault list;  (* sorted by at_s *)
  retry : Retry_policy.t;
  recovery : Recovery.t;
  attempts : (int, int) Hashtbl.t;  (* event id -> aborts so far *)
  mutable violation_count : int;
  mutable checks : int;  (* check_now calls outside a transaction *)
  mutable cursor : (Net_state.t * Net_state.cursor) option;
      (* the net this injector checks, and its place in that net's log *)
}

let create ?(retry = Retry_policy.default) schedule =
  (match Retry_policy.validate retry with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Injector.create: " ^ msg));
  {
    pending =
      List.stable_sort
        (fun (a : Fault_model.fault) b ->
          compare a.Fault_model.at_s b.Fault_model.at_s)
        schedule;
    retry;
    recovery = Recovery.create ();
    attempts = Hashtbl.create 32;
    violation_count = 0;
    checks = 0;
    cursor = None;
  }

let recovery t = t.recovery
let violations t = t.violation_count

(* Checkpoint support: the pieces of injector state that influence
   future engine decisions are the unapplied schedule suffix and the
   per-event abort counts (they drive retry backoff vs degradation).
   The recovery log is telemetry — a thawed injector starts a fresh log
   covering the post-restore suffix. *)

type frozen = {
  fz_pending : Fault_model.schedule;
  fz_attempts : (int * int) list;  (* event id, aborts so far; id-sorted *)
  fz_violations : int;
}

let freeze t =
  {
    fz_pending = t.pending;
    fz_attempts =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.attempts []);
    fz_violations = t.violation_count;
  }

let thaw ?retry fz =
  let t = create ?retry fz.fz_pending in
  List.iter (fun (id, n) -> Hashtbl.replace t.attempts id n) fz.fz_attempts;
  t.violation_count <- fz.fz_violations;
  t

let next_due_s t =
  match t.pending with
  | [] -> None
  | f :: _ -> Some f.Fault_model.at_s

(* ------------------------------------------------------------------ *)
(* Evacuation: move a flow off failed capacity, deterministically.     *)

(* Try every enabled candidate in ranked order; the candidate view
   already drops candidates crossing disabled edges, and reroute itself
   re-checks capacity with the flow's own usage released. A flow with no
   surviving feasible path is removed — a recorded drop, never a silent
   blackhole. *)
let evacuate_flow t net ~now flow_id =
  match Net_state.flow net flow_id with
  | None -> ()
  | Some (p : Net_state.placed) ->
      let c = Net_state.candidates net p.Net_state.record in
      let rec try_from i =
        if i >= Net_state.candidate_count c then begin
          (match Net_state.remove net flow_id with
          | Ok _ | Error `Not_found -> ());
          Recovery.record t.recovery
            (Recovery.Flow_evacuated { flow_id; at_s = now; dropped = true })
        end
        else if Net_state.candidate_is c i p.Net_state.path then try_from (i + 1)
        else
          match Net_state.reroute net flow_id (Net_state.candidate_path net c i) with
          | Ok _ ->
              Recovery.record t.recovery
                (Recovery.Flow_evacuated
                   { flow_id; at_s = now; dropped = false })
          | Error _ -> try_from (i + 1)
      in
      try_from 0

(* Flows crossing any of the given (now disabled) edges, in id order. *)
let evacuate_edges t net ~now edges =
  let ids =
    List.sort_uniq compare
      (List.concat_map
         (fun e ->
           List.map
             (fun (p : Net_state.placed) -> p.Net_state.record.Flow_record.id)
             (Net_state.flows_on_edge net e))
         edges)
  in
  List.iter (evacuate_flow t net ~now) ids

(* Shed flows (id order) until the degraded edge's residual is
   non-negative again. *)
let shed_overload t net ~now edge =
  let rec shed () =
    if Net_state.residual net edge < 0.0 then
      match Net_state.flows_on_edge net edge with
      | [] -> ()
      | p :: _ ->
          evacuate_flow t net ~now p.Net_state.record.Flow_record.id;
          shed ()
  in
  shed ()

let with_reverse net e =
  let g = Net_state.graph net in
  match Graph.reverse_edge g (Graph.edge g e) with
  | Some r -> [ e; r.Graph.id ]
  | None -> [ e ]

let incident_edges net v =
  let g = Net_state.graph net in
  List.sort_uniq compare
    (List.map
       (fun (e : Graph.edge) -> e.Graph.id)
       (Graph.out_edges g v @ Graph.in_edges g v))

let apply_fault t net ~now (f : Fault_model.fault) =
  Recovery.record t.recovery
    (Recovery.Fault_applied
       {
         at_s = f.Fault_model.at_s;
         tag = Fault_model.action_tag f.Fault_model.action;
         subject = Fault_model.subject f.Fault_model.action;
       });
  if Trace.enabled () then
    Trace.instant "fault"
      ~attrs:
        [
          ("at_s", Trace.Float f.Fault_model.at_s);
          ( "action",
            Trace.Str
              (Format.asprintf "%a" Fault_model.pp_action f.Fault_model.action)
          );
        ];
  match f.Fault_model.action with
  | Fault_model.Link_down e ->
      let edges = with_reverse net e in
      List.iter (Net_state.disable_edge net) edges;
      evacuate_edges t net ~now edges
  | Fault_model.Link_up e ->
      List.iter (Net_state.enable_edge net) (with_reverse net e)
  | Fault_model.Switch_down v ->
      let edges = incident_edges net v in
      List.iter (Net_state.disable_edge net) edges;
      evacuate_edges t net ~now edges
  | Fault_model.Switch_up v ->
      List.iter (Net_state.enable_edge net) (incident_edges net v)
  | Fault_model.Degrade { edge; lost_mbps } ->
      List.iter
        (fun e ->
          Net_state.degrade_edge net e ~lost_mbps;
          shed_overload t net ~now e)
        (with_reverse net edge)
  | Fault_model.Restore e ->
      List.iter (Net_state.restore_edge_capacity net) (with_reverse net e)

let apply_due t net ~now =
  let rec loop applied =
    match t.pending with
    | f :: rest when f.Fault_model.at_s <= now ->
        t.pending <- rest;
        apply_fault t net ~now f;
        loop (applied + 1)
    | _ -> applied
  in
  loop 0

let note_abort t ~event_id ~now =
  let attempt = 1 + (try Hashtbl.find t.attempts event_id with Not_found -> 0) in
  Hashtbl.replace t.attempts event_id attempt;
  Recovery.record t.recovery
    (Recovery.Migration_aborted { event_id; at_s = now; attempt });
  match Retry_policy.decide t.retry ~attempt with
  | `Retry_after backoff ->
      let ready_s = now +. backoff in
      Recovery.record t.recovery
        (Recovery.Retry_scheduled { event_id; ready_s; attempt });
      `Retry_at ready_s
  | `Degrade ->
      Recovery.record t.recovery
        (Recovery.Event_degraded { event_id; at_s = now });
      `Degrade

(* Every [full_every]-th check is the full oracle sweep even when the
   cursor vouches for completeness: a cheap backstop against a write
   path that bypasses the log. *)
let full_every = 16

(* The incremental check runs when this injector's cursor in the net's
   committed log vouches for every flow written since its previous
   check. The full sweep runs on the first check of a net (after create
   or thaw, or when handed a different net), on every [full_every]-th
   check, when the cursor was dropped for lagging, and inside an open
   transaction — whose writes are not in the log yet, so that check
   leaves the cursor to the next one. *)
let sweep t net =
  if Net_state.in_txn net then Invariant.check net
  else begin
    t.checks <- t.checks + 1;
    let changed =
      match t.cursor with
      | Some (n, c) when n == net -> Net_state.drain_flow_ids net c
      | _ -> None
    in
    match changed with
    | Some flows when t.checks mod full_every <> 0 ->
        Invariant.check_changed net ~flows
    | Some _ -> Invariant.check net
    | None ->
        Option.iter (fun (n, c) -> Net_state.close_cursor n c) t.cursor;
        t.cursor <- Some (net, Net_state.open_cursor net ~bounded:true);
        Invariant.check net
  end

let check_now t net ~now =
  let vs = sweep t net in
  List.iter
    (fun (v : Invariant.violation) ->
      t.violation_count <- t.violation_count + 1;
      Recovery.record t.recovery
        (Recovery.Invariant_violated { at_s = now; name = v.Invariant.name }))
    vs;
  vs
