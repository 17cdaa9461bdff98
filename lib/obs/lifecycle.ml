(* Request-lifecycle tracker. Each stamp is a (request id, stage)
   observation at a (tick, simulated instant); the tracker keeps an
   id -> tenant attribution table for the requests still in flight and
   optionally streams every entry to a Store record log as it is
   stamped. Terminal stages retire the
   attribution entry so memory stays proportional to in-flight work. *)

type stage =
  | Arrived
  | Admitted
  | Deferred
  | Submitted of { wait_ticks : int }
  | Planned of { round : int; co_scheduled : bool }
  | Aborted of { round : int }
  | Retry_scheduled of { ready_s : float }
  | Completed of { ect_s : float }
  | Degraded of { ect_s : float; failed_items : int }

type entry = {
  id : int;
  tenant : string;
  tick : int;
  t_s : float;
  stage : stage;
}

let stage_name = function
  | Arrived -> "arrived"
  | Admitted -> "admitted"
  | Deferred -> "deferred"
  | Submitted _ -> "submitted"
  | Planned _ -> "planned"
  | Aborted _ -> "aborted"
  | Retry_scheduled _ -> "retry-scheduled"
  | Completed _ -> "completed"
  | Degraded _ -> "degraded"

let terminal = function
  | Completed _ | Degraded _ -> true
  | Arrived | Admitted | Deferred | Submitted _ | Planned _ | Aborted _
  | Retry_scheduled _ ->
      false

let stage_fields = function
  | Arrived | Admitted | Deferred -> []
  | Submitted { wait_ticks } -> [ ("wait_ticks", Json.Int wait_ticks) ]
  | Planned { round; co_scheduled } ->
      [ ("round", Json.Int round); ("co", Json.Bool co_scheduled) ]
  | Aborted { round } -> [ ("round", Json.Int round) ]
  | Retry_scheduled { ready_s } -> [ ("ready_s", Json.Float ready_s) ]
  | Completed { ect_s } -> [ ("ect_s", Json.Float ect_s) ]
  | Degraded { ect_s; failed_items } ->
      [ ("ect_s", Json.Float ect_s); ("failed", Json.Int failed_items) ]

let entry_to_json e =
  Json.Obj
    ([
       ("id", Json.Int e.id);
       ("tenant", Json.String e.tenant);
       ("tick", Json.Int e.tick);
       ("t_s", Json.Float e.t_s);
       ("stage", Json.String (stage_name e.stage));
     ]
    @ stage_fields e.stage)

let entry_of_json j =
  let ( let* ) = Result.bind in
  let int k =
    match Json.member k j with
    | Some (Json.Int i) -> Ok i
    | _ -> Error (Printf.sprintf "lifecycle entry: missing int %S" k)
  in
  let num k =
    match Json.member k j with
    | Some (Json.Float f) -> Ok f
    | Some (Json.Int i) -> Ok (float_of_int i)
    | _ -> Error (Printf.sprintf "lifecycle entry: missing number %S" k)
  in
  let str k =
    match Json.member k j with
    | Some (Json.String s) -> Ok s
    | _ -> Error (Printf.sprintf "lifecycle entry: missing string %S" k)
  in
  let* id = int "id" in
  let* tenant = str "tenant" in
  let* tick = int "tick" in
  let* t_s = num "t_s" in
  let* name = str "stage" in
  let* stage =
    match name with
    | "arrived" -> Ok Arrived
    | "admitted" -> Ok Admitted
    | "deferred" -> Ok Deferred
    | "submitted" ->
        let* wait_ticks = int "wait_ticks" in
        Ok (Submitted { wait_ticks })
    | "planned" -> (
        let* round = int "round" in
        match Json.member "co" j with
        | Some (Json.Bool co_scheduled) -> Ok (Planned { round; co_scheduled })
        | _ -> Error "lifecycle entry: missing bool \"co\"")
    | "aborted" ->
        let* round = int "round" in
        Ok (Aborted { round })
    | "retry-scheduled" ->
        let* ready_s = num "ready_s" in
        Ok (Retry_scheduled { ready_s })
    | "completed" ->
        let* ect_s = num "ect_s" in
        Ok (Completed { ect_s })
    | "degraded" ->
        let* ect_s = num "ect_s" in
        let* failed_items = int "failed" in
        Ok (Degraded { ect_s; failed_items })
    | other -> Error (Printf.sprintf "lifecycle entry: unknown stage %S" other)
  in
  Ok { id; tenant; tick; t_s; stage }

type t = {
  tenants : (int, string) Hashtbl.t;
  mutable log : Store.writer option;
  mutable stamped : int;
}

let create ?path () =
  {
    tenants = Hashtbl.create 64;
    log = Option.map (fun p -> Store.open_writer p) path;
    stamped = 0;
  }

let tenant_of t id = Hashtbl.find_opt t.tenants id
let stamped t = t.stamped
let in_flight t = Hashtbl.length t.tenants

(* Flow-event phase for the Chrome trace linkage: a request's first
   stamp starts its flow arrow, the terminal stamp finishes it, and
   everything between is a step. *)
let flow_phase ~fresh stage =
  if fresh then "s" else if terminal stage then "f" else "t"

let stamp t ~id ?tenant ~tick ~t_s stage =
  let fresh = not (Hashtbl.mem t.tenants id) in
  let tenant =
    match tenant with
    | Some tn ->
        Hashtbl.replace t.tenants id tn;
        tn
    | None -> Option.value (tenant_of t id) ~default:""
  in
  if fresh && not (terminal stage) then Hashtbl.replace t.tenants id tenant;
  let e = { id; tenant; tick; t_s; stage } in
  t.stamped <- t.stamped + 1;
  Option.iter
    (fun log -> Store.append log (Json.to_string (entry_to_json e)))
    t.log;
  if Trace.enabled () then
    Trace.instant "lifecycle"
      ~attrs:
        [
          ("id", Trace.Int id);
          ("stage", Trace.Str (stage_name stage));
          ("flow", Trace.Str (flow_phase ~fresh stage));
        ];
  if terminal stage then Hashtbl.remove t.tenants id

let close t =
  Option.iter Store.close t.log;
  t.log <- None

let read_log path =
  Store.read_report
    ~decode:(fun p -> Result.bind (Json.of_string p) entry_of_json)
    path
