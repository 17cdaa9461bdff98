module Trace = Nu_obs.Trace

type t = {
  mutable pending : Fault_model.fault list;  (* sorted by at_s *)
  retry : Retry_policy.t;
  recovery : Recovery.t;
  attempts : (int, int) Hashtbl.t;  (* event id -> aborts so far *)
  mutable violation_count : int;
  mutable checks : int;  (* check_now calls outside a transaction *)
  mutable walked : int;
      (* flows the last check walked incrementally; -1 when it was full *)
  mutable cursor : (Net_state.t * Net_state.cursor) option;
      (* the net this injector checks, and its place in that net's log *)
  changed : int array ref;  (* the flow ids the last drain wrote *)
  evacuees : int array ref;  (* the flow ids on the edges being evacuated *)
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
    walked = -1;
    cursor = None;
    changed = ref [||];
    evacuees = ref [||];
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
   already drops candidates crossing disabled edges, and the reroute
   test judges capacity with the flow's own usage released. Only the
   candidate taken is built into a path. A flow with no surviving
   feasible path is removed — a recorded drop, never a silent
   blackhole. *)
let evacuate_flow t net ~now flow_id =
  match Net_state.peek_flow net flow_id with
  | exception Not_found -> ()
  | p ->
      let c = Net_state.candidates net p.Net_state.record in
      let n = Net_state.candidate_count c in
      let i = ref 0 and moved = ref false in
      while (not !moved) && !i < n do
        if
          (not (Net_state.candidate_is c !i p.Net_state.path))
          && Net_state.candidate_reroutable net p c !i
        then begin
          match
            Net_state.reroute net flow_id (Net_state.candidate_path net c !i)
          with
          | Ok _ -> moved := true
          | Error _ -> ()
        end;
        incr i
      done;
      if not !moved then
        ignore (Net_state.remove net flow_id : (_, _) result);
      Recovery.record t.recovery
        (Recovery.Flow_evacuated
           { flow_id; at_s = now; dropped = not !moved })

(* Flows crossing any of the given (now disabled) edges, in id order. *)
let evacuate_edges t net ~now edges =
  let n = Net_state.edge_flow_ids net edges ~into:t.evacuees in
  let ids = !(t.evacuees) in
  for i = 0 to n - 1 do
    evacuate_flow t net ~now ids.(i)
  done

(* Shed flows (id order) until the degraded edge's residual is
   non-negative again. Each shed flow leaves the edge (no candidate
   through an overdrawn edge fits) and no other flow joins it, so the
   ids read once are the ids a re-read would give. *)
let shed_overload t net ~now edge =
  if Net_state.residual net edge < 0.0 then begin
    let n = Net_state.edge_flow_ids net [ edge ] ~into:t.evacuees in
    let ids = !(t.evacuees) and i = ref 0 in
    while !i < n && Net_state.residual net edge < 0.0 do
      evacuate_flow t net ~now ids.(!i);
      incr i
    done
  end

let with_reverse net e =
  let g = Net_state.graph net in
  match Graph.reverse_edge g (Graph.edge g e) with
  | Some r -> [ e; r.Graph.id ]
  | None -> [ e ]

(* The ids of the edges into or out of node [v], ascending and each
   once: both rows list their edges in id order, so they merge. *)
let incident_edges net v =
  let rec merge (outs : Graph.edge list) (ins : Graph.edge list) =
    match (outs, ins) with
    | [], rest | rest, [] -> List.map (fun (e : Graph.edge) -> e.Graph.id) rest
    | o :: os, i :: is ->
        if o.Graph.id < i.Graph.id then o.Graph.id :: merge os ins
        else if i.Graph.id < o.Graph.id then i.Graph.id :: merge outs is
        else o.Graph.id :: merge os is
  in
  let g = Net_state.graph net in
  merge (Graph.out_edges g v) (Graph.in_edges g v)

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
   leaves the cursor to the next one. Sets [walked]. *)
let sweep t net =
  t.walked <- -1;
  if Net_state.in_txn net then Invariant.check net
  else begin
    t.checks <- t.checks + 1;
    let changed =
      match t.cursor with
      | Some (n, c) when n == net ->
          Net_state.drain_changed net c ~into:t.changed
      | _ -> -1
    in
    if changed >= 0 && t.checks mod full_every <> 0 then begin
      t.walked <- changed;
      Invariant.check_changed net ~flows:!(t.changed) ~n:changed
    end
    else begin
      if changed < 0 then begin
        Option.iter (fun (n, c) -> Net_state.close_cursor n c) t.cursor;
        t.cursor <- Some (net, Net_state.open_cursor net ~bounded:true)
      end;
      Invariant.check net
    end
  end

(* Named apart from the benchmark's own [invariant_check] span, which
   times a standalone full check outside every driving call. *)
let check_now t net ~now =
  let vs =
    if Trace.enabled () then begin
      let sp = Trace.span "fault.invariant_check" in
      let vs = sweep t net in
      let full = t.walked < 0 in
      Trace.finish sp
        ~attrs:
          [
            ("mode", Trace.Str (if full then "full" else "incremental"));
            ( "flows",
              Trace.Int (if full then Net_state.flow_count net else t.walked)
            );
            ("violations", Trace.Int (List.length vs));
          ];
      vs
    end
    else sweep t net
  in
  (match vs with
  | [] -> ()
  | vs ->
      List.iter
        (fun (v : Invariant.violation) ->
          t.violation_count <- t.violation_count + 1;
          Recovery.record t.recovery
            (Recovery.Invariant_violated
               { at_s = now; name = v.Invariant.name }))
        vs);
  vs
