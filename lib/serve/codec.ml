module Json = Nu_obs.Json
module Injector = Nu_fault.Injector
module Fault_model = Nu_fault.Fault_model

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Decoding combinators.                                               *)

let field name j =
  match Json.member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let opt_field name j = Json.member name j

let as_int = function
  | Json.Int i -> Ok i
  | j -> Error ("expected int, got " ^ Json.to_string j)

let as_bool = function
  | Json.Bool b -> Ok b
  | j -> Error ("expected bool, got " ^ Json.to_string j)

(* Floats whose value is integral print without a decimal point and
   parse back as [Int]; both shapes decode to the identical double
   (integers below 1e15 are exactly representable). *)
let as_float = function
  | Json.Float f -> Ok f
  | Json.Int i -> Ok (float_of_int i)
  | j -> Error ("expected number, got " ^ Json.to_string j)

let as_string = function
  | Json.String s -> Ok s
  | j -> Error ("expected string, got " ^ Json.to_string j)

let as_list = function
  | Json.List l -> Ok l
  | j -> Error ("expected list, got " ^ Json.to_string j)

let map_m f l =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest ->
        let* y = f x in
        go (y :: acc) rest
  in
  go [] l

let int_field name j =
  let* v = field name j in
  as_int v

let float_field name j =
  let* v = field name j in
  as_float v

let string_field name j =
  let* v = field name j in
  as_string v

let list_field name j =
  let* v = field name j in
  as_list v

(* 64-bit PRNG cursors exceed OCaml's 63-bit [Int]; ship them as
   decimal strings. *)
let int64_to_json v = Json.String (Int64.to_string v)

let int64_of_json j =
  let* s = as_string j in
  match Int64.of_string_opt s with
  | Some v -> Ok v
  | None -> Error ("invalid int64: " ^ s)

let float_array_to_json a =
  Json.List (Array.to_list (Array.map (fun f -> Json.Float f) a))

let float_array_of_json j =
  let* l = as_list j in
  let* fs = map_m as_float l in
  Ok (Array.of_list fs)

let int_array_to_json a =
  Json.List (Array.to_list (Array.map (fun i -> Json.Int i) a))

let int_array_of_json j =
  let* l = as_list j in
  let* is = map_m as_int l in
  Ok (Array.of_list is)

let bool_array_to_json a =
  Json.List (Array.to_list (Array.map (fun b -> Json.Bool b) a))

let bool_array_of_json j =
  let* l = as_list j in
  let* bs = map_m as_bool l in
  Ok (Array.of_list bs)

(* ------------------------------------------------------------------ *)
(* Traffic and update-event types.                                     *)

let flow_to_json (r : Flow_record.t) =
  Json.Obj
    [
      ("id", Json.Int r.Flow_record.id);
      ("src", Json.Int r.Flow_record.src);
      ("dst", Json.Int r.Flow_record.dst);
      ("size_mbit", Json.Float r.Flow_record.size_mbit);
      ("duration_s", Json.Float r.Flow_record.duration_s);
      ("arrival_s", Json.Float r.Flow_record.arrival_s);
    ]

let flow_of_json j =
  let* id = int_field "id" j in
  let* src = int_field "src" j in
  let* dst = int_field "dst" j in
  let* size_mbit = float_field "size_mbit" j in
  let* duration_s = float_field "duration_s" j in
  let* arrival_s = float_field "arrival_s" j in
  try Ok (Flow_record.v ~id ~src ~dst ~size_mbit ~duration_s ~arrival_s)
  with Invalid_argument msg -> Error msg

let avoid_to_json = function
  | Event.Unconstrained -> Json.Obj [ ("kind", Json.String "unconstrained") ]
  | Event.Avoid_node v ->
      Json.Obj [ ("kind", Json.String "avoid_node"); ("node", Json.Int v) ]
  | Event.Avoid_edges es ->
      Json.Obj
        [
          ("kind", Json.String "avoid_edges");
          ("edges", Json.List (List.map (fun e -> Json.Int e) es));
        ]

let avoid_of_json j =
  let* kind = string_field "kind" j in
  match kind with
  | "unconstrained" -> Ok Event.Unconstrained
  | "avoid_node" ->
      let* v = int_field "node" j in
      Ok (Event.Avoid_node v)
  | "avoid_edges" ->
      let* es = list_field "edges" j in
      let* ids = map_m as_int es in
      Ok (Event.Avoid_edges ids)
  | k -> Error ("unknown avoid kind: " ^ k)

let work_to_json = function
  | Event.Install r ->
      Json.Obj [ ("op", Json.String "install"); ("flow", flow_to_json r) ]
  | Event.Reroute { flow_id; avoid } ->
      Json.Obj
        [
          ("op", Json.String "reroute");
          ("flow_id", Json.Int flow_id);
          ("avoid", avoid_to_json avoid);
        ]

let work_of_json j =
  let* op = string_field "op" j in
  match op with
  | "install" ->
      let* fj = field "flow" j in
      let* r = flow_of_json fj in
      Ok (Event.Install r)
  | "reroute" ->
      let* flow_id = int_field "flow_id" j in
      let* aj = field "avoid" j in
      let* avoid = avoid_of_json aj in
      Ok (Event.Reroute { flow_id; avoid })
  | op -> Error ("unknown work op: " ^ op)

let kind_to_json = function
  | Event.Additions -> Json.Obj [ ("kind", Json.String "additions") ]
  | Event.Vm_migration -> Json.Obj [ ("kind", Json.String "vm_migration") ]
  | Event.Switch_upgrade v ->
      Json.Obj [ ("kind", Json.String "switch_upgrade"); ("node", Json.Int v) ]
  | Event.Link_failure (a, b) ->
      Json.Obj
        [
          ("kind", Json.String "link_failure");
          ("edge", Json.Int a);
          ("reverse", Json.Int b);
        ]

let kind_of_json j =
  let* kind = string_field "kind" j in
  match kind with
  | "additions" -> Ok Event.Additions
  | "vm_migration" -> Ok Event.Vm_migration
  | "switch_upgrade" ->
      let* v = int_field "node" j in
      Ok (Event.Switch_upgrade v)
  | "link_failure" ->
      let* a = int_field "edge" j in
      let* b = int_field "reverse" j in
      Ok (Event.Link_failure (a, b))
  | k -> Error ("unknown event kind: " ^ k)

let event_to_json (ev : Event.t) =
  Json.Obj
    [
      ("id", Json.Int ev.Event.id);
      ("arrival_s", Json.Float ev.Event.arrival_s);
      ("kind", kind_to_json ev.Event.kind);
      ("work", Json.List (List.map work_to_json ev.Event.work));
    ]

let event_of_json j =
  let* id = int_field "id" j in
  let* arrival_s = float_field "arrival_s" j in
  let* kj = field "kind" j in
  let* kind = kind_of_json kj in
  let* wl = list_field "work" j in
  let* work = map_m work_of_json wl in
  if work = [] then Error "event with empty work list"
  else Ok { Event.id; arrival_s; kind; work }

let request_to_json (r : Request.t) =
  Json.Obj
    [
      ("tenant", Json.String r.Request.tenant);
      ("event", event_to_json r.Request.event);
    ]

let request_of_json j =
  let* tenant = string_field "tenant" j in
  let* ej = field "event" j in
  let* event = event_of_json ej in
  if tenant = "" then Error "empty tenant" else Ok { Request.tenant; event }

(* ------------------------------------------------------------------ *)
(* Policy.                                                             *)

let policy_to_json = function
  | Policy.Fifo -> Json.Obj [ ("policy", Json.String "fifo") ]
  | Policy.Reorder -> Json.Obj [ ("policy", Json.String "reorder") ]
  | Policy.Lmtf { alpha } ->
      Json.Obj [ ("policy", Json.String "lmtf"); ("alpha", Json.Int alpha) ]
  | Policy.Plmtf { alpha } ->
      Json.Obj [ ("policy", Json.String "plmtf"); ("alpha", Json.Int alpha) ]
  | Policy.Flow_level Policy.Round_robin ->
      Json.Obj
        [
          ("policy", Json.String "flow_level");
          ("order", Json.String "round_robin");
        ]
  | Policy.Flow_level Policy.By_arrival ->
      Json.Obj
        [
          ("policy", Json.String "flow_level");
          ("order", Json.String "by_arrival");
        ]

let policy_of_json j =
  let* p = string_field "policy" j in
  match p with
  | "fifo" -> Ok Policy.Fifo
  | "reorder" -> Ok Policy.Reorder
  | "lmtf" ->
      let* alpha = int_field "alpha" j in
      Ok (Policy.Lmtf { alpha })
  | "plmtf" ->
      let* alpha = int_field "alpha" j in
      Ok (Policy.Plmtf { alpha })
  | "flow_level" -> (
      let* order = string_field "order" j in
      match order with
      | "round_robin" -> Ok (Policy.Flow_level Policy.Round_robin)
      | "by_arrival" -> Ok (Policy.Flow_level Policy.By_arrival)
      | o -> Error ("unknown flow order: " ^ o))
  | p -> Error ("unknown policy: " ^ p)

(* ------------------------------------------------------------------ *)
(* Fault schedules.                                                    *)

let fault_action_to_json = function
  | Fault_model.Link_down e ->
      Json.Obj [ ("op", Json.String "link_down"); ("edge", Json.Int e) ]
  | Fault_model.Link_up e ->
      Json.Obj [ ("op", Json.String "link_up"); ("edge", Json.Int e) ]
  | Fault_model.Switch_down v ->
      Json.Obj [ ("op", Json.String "switch_down"); ("node", Json.Int v) ]
  | Fault_model.Switch_up v ->
      Json.Obj [ ("op", Json.String "switch_up"); ("node", Json.Int v) ]
  | Fault_model.Degrade { edge; lost_mbps } ->
      Json.Obj
        [
          ("op", Json.String "degrade");
          ("edge", Json.Int edge);
          ("lost_mbps", Json.Float lost_mbps);
        ]
  | Fault_model.Restore e ->
      Json.Obj [ ("op", Json.String "restore"); ("edge", Json.Int e) ]

let fault_action_of_json j =
  let* op = string_field "op" j in
  match op with
  | "link_down" ->
      let* e = int_field "edge" j in
      Ok (Fault_model.Link_down e)
  | "link_up" ->
      let* e = int_field "edge" j in
      Ok (Fault_model.Link_up e)
  | "switch_down" ->
      let* v = int_field "node" j in
      Ok (Fault_model.Switch_down v)
  | "switch_up" ->
      let* v = int_field "node" j in
      Ok (Fault_model.Switch_up v)
  | "degrade" ->
      let* edge = int_field "edge" j in
      let* lost_mbps = float_field "lost_mbps" j in
      Ok (Fault_model.Degrade { edge; lost_mbps })
  | "restore" ->
      let* e = int_field "edge" j in
      Ok (Fault_model.Restore e)
  | op -> Error ("unknown fault op: " ^ op)

let fault_to_json (f : Fault_model.fault) =
  Json.Obj
    [
      ("at_s", Json.Float f.Fault_model.at_s);
      ("action", fault_action_to_json f.Fault_model.action);
    ]

let fault_of_json j =
  let* at_s = float_field "at_s" j in
  let* aj = field "action" j in
  let* action = fault_action_of_json aj in
  Ok { Fault_model.at_s; action }

let injector_frozen_to_json (fz : Injector.frozen) =
  Json.Obj
    [
      ("pending", Json.List (List.map fault_to_json fz.Injector.fz_pending));
      ( "attempts",
        Json.List
          (List.map
             (fun (id, n) -> Json.List [ Json.Int id; Json.Int n ])
             fz.Injector.fz_attempts) );
      ("violations", Json.Int fz.Injector.fz_violations);
    ]

let injector_frozen_of_json j =
  let* pl = list_field "pending" j in
  let* fz_pending = map_m fault_of_json pl in
  let* al = list_field "attempts" j in
  let* fz_attempts =
    map_m
      (function
        | Json.List [ Json.Int id; Json.Int n ] -> Ok (id, n)
        | j -> Error ("bad attempt pair: " ^ Json.to_string j))
      al
  in
  let* fz_violations = int_field "violations" j in
  Ok { Injector.fz_pending; fz_attempts; fz_violations }

(* ------------------------------------------------------------------ *)
(* Network state.                                                      *)

let path_to_json p =
  Json.List (List.map (fun v -> Json.Int v) (Path.nodes p))

let path_of_json graph j =
  let* l = as_list j in
  let* nodes = map_m as_int l in
  try Ok (Path.of_nodes graph nodes)
  with Invalid_argument msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Columns: a record list stored as one array per field, each checked
   against the stored row count [n]. Int columns are JSON int lists.
   A float column is one JSON string of 16 lowercase hex digits per
   value, the IEEE-754 bits, so every double (-0., subnormals,
   infinities, NaN payloads) round-trips bit-exactly with no decimal
   formatting.                                                         *)

let hex_digit = "0123456789abcdef"

let float_column_to_json a =
  let b = Bytes.create (16 * Array.length a) in
  Array.iteri
    (fun i f ->
      let bits = Int64.bits_of_float f in
      let put off w =
        for k = 0 to 7 do
          Bytes.unsafe_set b (off + k)
            hex_digit.[(w lsr (28 - (4 * k))) land 0xf]
        done
      in
      put (16 * i) (Int64.to_int (Int64.shift_right_logical bits 32));
      put ((16 * i) + 8) (Int64.to_int bits land 0xffff_ffff))
    a;
  Json.String (Bytes.unsafe_to_string b)

let float_column_of_json ~n j =
  let* s = as_string j in
  let len = String.length s in
  if len mod 16 <> 0 || len / 16 <> n then
    Error
      (Printf.sprintf "float column of %d hex digits does not hold %d values"
         len n)
  else
    (* One 32-bit half from 8 hex digits; -1 on a non-hex digit. *)
    let word off =
      let rec go acc k =
        if k = 8 then acc
        else
          match s.[off + k] with
          | '0' .. '9' as c -> go ((acc lsl 4) lor (Char.code c - 48)) (k + 1)
          | 'a' .. 'f' as c -> go ((acc lsl 4) lor (Char.code c - 87)) (k + 1)
          | _ -> -1
      in
      go 0 0
    in
    let a = Array.make n 0.0 in
    let rec fill i =
      if i = n then Ok a
      else
        let hi = word (16 * i) and lo = word ((16 * i) + 8) in
        if hi < 0 || lo < 0 then
          Error (Printf.sprintf "float column: non-hex digit in value %d" i)
        else begin
          a.(i) <-
            Int64.float_of_bits
              (Int64.logor
                 (Int64.shift_left (Int64.of_int hi) 32)
                 (Int64.of_int lo));
          fill (i + 1)
        end
    in
    fill 0

let list_column_of_json ~n j =
  let* l = as_list j in
  let len = List.length l in
  if len <> n then
    Error (Printf.sprintf "column of %d entries does not hold %d values" len n)
  else Ok l

let int_column_of_json ~n j =
  let* l = list_column_of_json ~n j in
  let* is = map_m as_int l in
  Ok (Array.of_list is)

let column name decode ~n j =
  let* v = field name j in
  Result.map_error (Printf.sprintf "column %S: %s" name) (decode ~n v)

(* Rows [0, n) in order, stopping at the first [Error]. *)
let rows n f =
  let rec go acc i =
    if i >= n then Ok (List.rev acc)
    else
      let* x = f i in
      go (x :: acc) (i + 1)
  in
  go [] 0

let flow_columns_to_json (flows : Net_state.placed list) =
  let a = Array.of_list flows in
  let of_records f = Array.map (fun p -> f p.Net_state.record) a in
  let ints f = int_array_to_json (of_records f) in
  let floats f = float_column_to_json (of_records f) in
  Json.Obj
    [
      ("n", Json.Int (Array.length a));
      ("id", ints (fun r -> r.Flow_record.id));
      ("src", ints (fun r -> r.Flow_record.src));
      ("dst", ints (fun r -> r.Flow_record.dst));
      ("size_mbit", floats (fun r -> r.Flow_record.size_mbit));
      ("duration_s", floats (fun r -> r.Flow_record.duration_s));
      ("arrival_s", floats (fun r -> r.Flow_record.arrival_s));
      ( "path",
        Json.List
          (Array.to_list (Array.map (fun p -> path_to_json p.Net_state.path) a))
      );
    ]

let flow_columns_of_json graph j =
  let* n = int_field "n" j in
  let* id = column "id" int_column_of_json ~n j in
  let* src = column "src" int_column_of_json ~n j in
  let* dst = column "dst" int_column_of_json ~n j in
  let* size_mbit = column "size_mbit" float_column_of_json ~n j in
  let* duration_s = column "duration_s" float_column_of_json ~n j in
  let* arrival_s = column "arrival_s" float_column_of_json ~n j in
  let* path = column "path" list_column_of_json ~n j in
  let path = Array.of_list path in
  rows n (fun i ->
      let* record =
        try
          Ok
            (Flow_record.v ~id:id.(i) ~src:src.(i) ~dst:dst.(i)
               ~size_mbit:size_mbit.(i) ~duration_s:duration_s.(i)
               ~arrival_s:arrival_s.(i))
        with Invalid_argument msg -> Error msg
      in
      let* path = path_of_json graph path.(i) in
      Ok { Net_state.record; path })

let net_frozen_to_json (fz : Net_state.frozen) =
  Json.Obj
    [
      ("flows", flow_columns_to_json fz.Net_state.fz_flows);
      ("residual", float_array_to_json fz.Net_state.fz_residual);
      ("degraded", float_array_to_json fz.Net_state.fz_degraded);
      ("disabled", bool_array_to_json fz.Net_state.fz_disabled);
      ("versions", int_array_to_json fz.Net_state.fz_versions);
      ("disabled_epoch", Json.Int fz.Net_state.fz_disabled_epoch);
      ("util_sum", Json.Float fz.Net_state.fz_util_sum);
      ("util_comp", Json.Float fz.Net_state.fz_util_comp);
    ]

let net_frozen_of_json graph j =
  let* fj = field "flows" j in
  let* fz_flows = flow_columns_of_json graph fj in
  let* rj = field "residual" j in
  let* fz_residual = float_array_of_json rj in
  let* dj = field "degraded" j in
  let* fz_degraded = float_array_of_json dj in
  let* bj = field "disabled" j in
  let* fz_disabled = bool_array_of_json bj in
  let* vj = field "versions" j in
  let* fz_versions = int_array_of_json vj in
  let* fz_disabled_epoch = int_field "disabled_epoch" j in
  let* fz_util_sum = float_field "util_sum" j in
  let* fz_util_comp = float_field "util_comp" j in
  Ok
    {
      Net_state.fz_flows;
      fz_residual;
      fz_degraded;
      fz_disabled;
      fz_versions;
      fz_disabled_epoch;
      fz_util_sum;
      fz_util_comp;
    }

(* ------------------------------------------------------------------ *)
(* Engine stepper.                                                     *)

let event_result_to_json (r : Engine.event_result) =
  Json.Obj
    [
      ("event_id", Json.Int r.Engine.event_id);
      ("arrival_s", Json.Float r.Engine.arrival_s);
      ("start_s", Json.Float r.Engine.start_s);
      ("completion_s", Json.Float r.Engine.completion_s);
      ("cost_mbit", Json.Float r.Engine.cost_mbit);
      ("plan_work_units", Json.Int r.Engine.plan_work_units);
      ("failed_items", Json.Int r.Engine.failed_items);
      ("co_scheduled", Json.Bool r.Engine.co_scheduled);
    ]

let event_result_of_json j =
  let* event_id = int_field "event_id" j in
  let* arrival_s = float_field "arrival_s" j in
  let* start_s = float_field "start_s" j in
  let* completion_s = float_field "completion_s" j in
  let* cost_mbit = float_field "cost_mbit" j in
  let* plan_work_units = int_field "plan_work_units" j in
  let* failed_items = int_field "failed_items" j in
  let* cj = field "co_scheduled" j in
  let* co_scheduled = as_bool cj in
  Ok
    {
      Engine.event_id;
      arrival_s;
      start_s;
      completion_s;
      cost_mbit;
      plan_work_units;
      failed_items;
      co_scheduled;
    }

let round_info_to_json (ri : Engine.round_info) =
  Json.Obj
    [
      ("round_start_s", Json.Float ri.Engine.round_start_s);
      ( "executed",
        Json.List (List.map (fun id -> Json.Int id) ri.Engine.executed) );
      ("co_count", Json.Int ri.Engine.co_count);
      ("round_units", Json.Int ri.Engine.round_units);
      ("fabric_utilization", Json.Float ri.Engine.fabric_utilization);
    ]

let round_info_of_json j =
  let* round_start_s = float_field "round_start_s" j in
  let* el = list_field "executed" j in
  let* executed = map_m as_int el in
  let* co_count = int_field "co_count" j in
  let* round_units = int_field "round_units" j in
  let* fabric_utilization = float_field "fabric_utilization" j in
  Ok
    {
      Engine.round_start_s;
      executed;
      co_count;
      round_units;
      fabric_utilization;
    }

let held_to_json (ready_s, ev) =
  Json.Obj [ ("ready_s", Json.Float ready_s); ("event", event_to_json ev) ]

let held_of_json j =
  let* ready_s = float_field "ready_s" j in
  let* ej = field "event" j in
  let* ev = event_of_json ej in
  Ok (ready_s, ev)

(* The departure queue in exact pop order, as columns. *)
let expiry_columns_to_json expiry =
  let a = Array.of_list expiry in
  Json.Obj
    [
      ("n", Json.Int (Array.length a));
      ("dep_s", float_column_to_json (Array.map fst a));
      ("flow_id", int_array_to_json (Array.map snd a));
    ]

let expiry_columns_of_json j =
  let* n = int_field "n" j in
  let* dep_s = column "dep_s" float_column_of_json ~n j in
  let* flow_id = column "flow_id" int_column_of_json ~n j in
  rows n (fun i -> Ok (dep_s.(i), flow_id.(i)))

let stepper_frozen_to_json (fz : Engine.Stepper.frozen) =
  Json.Obj
    [
      ("policy", policy_to_json fz.Engine.Stepper.fz_policy);
      ( "pending",
        Json.List (List.map event_to_json fz.Engine.Stepper.fz_pending) );
      ("queue", Json.List (List.map event_to_json fz.Engine.Stepper.fz_queue));
      ("held", Json.List (List.map held_to_json fz.Engine.Stepper.fz_held));
      ("now_s", Json.Float fz.Engine.Stepper.fz_now);
      ("rounds", Json.Int fz.Engine.Stepper.fz_rounds);
      ( "results",
        Json.List (List.map event_result_to_json fz.Engine.Stepper.fz_results)
      );
      ("log", Json.List (List.map round_info_to_json fz.Engine.Stepper.fz_log));
      ("units", Json.Int fz.Engine.Stepper.fz_units);
      ("next_churn_id", Json.Int fz.Engine.Stepper.fz_next_churn_id);
      ("expiry", expiry_columns_to_json fz.Engine.Stepper.fz_expiry);
      ("rng", int64_to_json fz.Engine.Stepper.fz_rng);
    ]

let stepper_frozen_of_json j =
  let* pj = field "policy" j in
  let* fz_policy = policy_of_json pj in
  let* pl = list_field "pending" j in
  let* fz_pending = map_m event_of_json pl in
  let* ql = list_field "queue" j in
  let* fz_queue = map_m event_of_json ql in
  let* hl = list_field "held" j in
  let* fz_held = map_m held_of_json hl in
  let* fz_now = float_field "now_s" j in
  let* fz_rounds = int_field "rounds" j in
  let* rl = list_field "results" j in
  let* fz_results = map_m event_result_of_json rl in
  let* ll = list_field "log" j in
  let* fz_log = map_m round_info_of_json ll in
  let* fz_units = int_field "units" j in
  let* fz_next_churn_id = int_field "next_churn_id" j in
  let* xj = field "expiry" j in
  let* fz_expiry = expiry_columns_of_json xj in
  let* rj = field "rng" j in
  let* fz_rng = int64_of_json rj in
  Ok
    {
      Engine.Stepper.fz_policy;
      fz_pending;
      fz_queue;
      fz_held;
      fz_now;
      fz_rounds;
      fz_results;
      fz_log;
      fz_units;
      fz_next_churn_id;
      fz_expiry;
      fz_rng;
    }

(* ------------------------------------------------------------------ *)
(* Admission queue.                                                    *)

let admission_frozen_to_json (fz : Admission.frozen) =
  Json.Obj
    [
      ("next_seq", Json.Int fz.Admission.fz_next_seq);
      ( "tenants",
        Json.List
          (List.map (fun s -> Json.String s) fz.Admission.fz_tenants) );
      ( "queues",
        Json.List
          (List.map
             (fun (tenant, entries) ->
               Json.Obj
                 [
                   ("tenant", Json.String tenant);
                   ( "entries",
                     Json.List
                       (List.map
                          (fun (seq, enq_tick, req) ->
                            Json.Obj
                              [
                                ("seq", Json.Int seq);
                                ("enq_tick", Json.Int enq_tick);
                                ("request", request_to_json req);
                              ])
                          entries) );
                 ])
             fz.Admission.fz_queues) );
      ( "stats",
        Json.List
          (List.map
             (fun (tenant, (admitted, shed, drained)) ->
               Json.Obj
                 [
                   ("tenant", Json.String tenant);
                   ("admitted", Json.Int admitted);
                   ("shed", Json.Int shed);
                   ("drained", Json.Int drained);
                 ])
             fz.Admission.fz_stats) );
    ]

let admission_frozen_of_json j =
  let* fz_next_seq = int_field "next_seq" j in
  let* tl = list_field "tenants" j in
  let* fz_tenants = map_m as_string tl in
  let* ql = list_field "queues" j in
  let* fz_queues =
    map_m
      (fun qj ->
        let* tenant = string_field "tenant" qj in
        let* el = list_field "entries" qj in
        let* entries =
          map_m
            (fun ej ->
              let* seq = int_field "seq" ej in
              let* enq_tick = int_field "enq_tick" ej in
              let* rj = field "request" ej in
              let* req = request_of_json rj in
              Ok (seq, enq_tick, req))
            el
        in
        Ok (tenant, entries))
      ql
  in
  let* sl = list_field "stats" j in
  let* fz_stats =
    map_m
      (fun sj ->
        let* tenant = string_field "tenant" sj in
        let* admitted = int_field "admitted" sj in
        let* shed = int_field "shed" sj in
        let* drained = int_field "drained" sj in
        Ok (tenant, (admitted, shed, drained)))
      sl
  in
  Ok { Admission.fz_next_seq; fz_tenants; fz_queues; fz_stats }
