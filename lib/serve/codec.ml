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


let as_int = function
  | Json.Int i -> Ok i
  | j -> Error ("expected int, got " ^ Json.to_string j)

let as_bool = function
  | Json.Bool b -> Ok b
  | j -> Error ("expected bool, got " ^ Json.to_string j)

(* Floats whose value is integral print without a decimal point and
   parse back as [Int]; both shapes decode to the identical double
   (integers below 1e15 are exactly representable). A decimal that
   overflows to an infinity is refused: the printer writes non-finite
   floats as null, so no such value can have been saved. *)
let non_finite = "non-finite number"

let as_float = function
  | Json.Float f when Float.is_finite f -> Ok f
  | Json.Float _ -> Error non_finite
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
(* Direct printing and reading. The bulk sections (the network's flow
   columns and per-edge arrays, the stepper's departure columns) print
   straight into the checkpoint's buffer and read straight from the
   lexer's cursor, with no tree in between; their small fields go
   through the tree codecs above. Readers raise through [Json.fail],
   which the enclosing [Json.read] turns into [Error].                 *)

let add_obj buf members =
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, add) ->
      if i > 0 then Buffer.add_char buf ',';
      Json.to_buf buf (Json.String k);
      Buffer.add_char buf ':';
      add buf)
    members;
  Buffer.add_char buf '}'

let tree j buf = Json.to_buf buf j

let add_list buf add l =
  Buffer.add_char buf '[';
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char buf ',';
      add buf x)
    l;
  Buffer.add_char buf ']'

(* An object's members in any order; the first binding of a key wins
   and later ones are only checked, as [Json.member] does on a tree. *)
let put c slot read =
  match !slot with None -> slot := Some (read c) | Some _ -> Json.skip c

let get c name slot =
  match !slot with
  | Some v -> v
  | None -> Json.fail c (Printf.sprintf "missing field %S" name)

(* A small field through its tree codec. *)
let sub decode c =
  match decode (Json.value c) with Ok v -> v | Error m -> Json.fail c m

let list_of read c =
  let acc = ref [] in
  Json.elements c (fun () -> acc := read c :: !acc);
  List.rev !acc

(* An array of [read] values. A [hint], the row count when it is
   already read, sizes it at once; it is capped, since the count is
   only checked against the array afterwards. *)
let array_of ?(hint = 16) zero read c =
  let a = ref (Array.make (max 1 (min hint 65536)) zero) and n = ref 0 in
  Json.elements c (fun () ->
      if !n = Array.length !a then a := Array.append !a !a;
      Array.unsafe_set !a !n (read c);
      incr n);
  if !n = Array.length !a then !a else Array.sub !a 0 !n

let finite c =
  let f = Json.float c in
  if Float.is_finite f then f else Json.fail c non_finite


(* ------------------------------------------------------------------ *)
(* Columns: a record list stored as one array per field, each checked
   against the stored row count [n]. Int columns are JSON int lists.
   A float column is one JSON string of 16 lowercase hex digits per
   value, the IEEE-754 bits, so every double (-0., subnormals,
   infinities, NaN payloads) round-trips bit-exactly with no decimal
   formatting.                                                         *)

let hex_digit = "0123456789abcdef"

(* Each byte's value as a lowercase hex digit, 0xff when it is not one. *)
let hex_value =
  String.init 256 (fun i ->
      match Char.chr i with
      | '0' .. '9' -> Char.chr (i - 48)
      | 'a' .. 'f' -> Char.chr (i - 87)
      | _ -> '\xff')

let add_float_column buf a =
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
  Buffer.add_char buf '"';
  Buffer.add_bytes buf b;
  Buffer.add_char buf '"'

let float_column_of_string ~n ~pos ~len s =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Codec.float_column_of_string";
  if len mod 16 <> 0 || len / 16 <> n then
    Error
      (Printf.sprintf "float column of %d hex digits does not hold %d values"
         len n)
  else
    (* One 32-bit half from 8 hex digits; -1 on a non-hex digit. The
       span was checked above, so the reads stay inside [s]. *)
    let word off =
      let acc = ref 0 and bad = ref 0 in
      for k = pos + off to pos + off + 7 do
        let v =
          Char.code
            (String.unsafe_get hex_value (Char.code (String.unsafe_get s k)))
        in
        bad := !bad lor v;
        acc := (!acc lsl 4) lor v
      done;
      if !bad > 0xf then -1 else !acc
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

(* A column's array, checked against [n] once the whole object is read
   (its members may come in any order). *)
let column c name ~n slot =
  let a = get c name slot in
  if Array.length a <> n then
    Json.fail c
      (Printf.sprintf "column %S: column of %d entries does not hold %d values"
         name (Array.length a) n);
  a

let float_column c name ~n slot =
  let s, pos, len = get c name slot in
  match float_column_of_string ~n ~pos ~len s with
  | Ok a -> a
  | Error m -> Json.fail c (Printf.sprintf "column %S: %s" name m)

(* ------------------------------------------------------------------ *)
(* Network state. Paths travel as node lists, resolved against the
   graph on load.                                                      *)

let add_flow_columns buf (flows : Net_state.placed list) =
  let ints f buf =
    add_list buf (fun buf p -> Json.add_int buf (f p.Net_state.record)) flows
  in
  let floats f buf =
    add_float_column buf
      (Array.of_list (List.map (fun p -> f p.Net_state.record) flows))
  in
  add_obj buf
    [
      ("n", fun buf -> Json.add_int buf (List.length flows));
      ("id", ints (fun r -> r.Flow_record.id));
      ("src", ints (fun r -> r.Flow_record.src));
      ("dst", ints (fun r -> r.Flow_record.dst));
      ("size_mbit", floats (fun r -> r.Flow_record.size_mbit));
      ("duration_s", floats (fun r -> r.Flow_record.duration_s));
      ("arrival_s", floats (fun r -> r.Flow_record.arrival_s));
      ( "path",
        fun buf ->
          add_list buf
            (fun buf p ->
              add_list buf Json.add_int (Path.nodes p.Net_state.path))
            flows );
    ]

(* A node list resolved to edge ids hop by hop as it is read, checked
   for at least two nodes and an edge for each hop, then by
   [Path.of_ids]. [ids] is scratch shared by one column. *)
let read_path graph ids c =
  let prev = ref (-1) and k = ref (-1) in
  Json.elements c (fun () ->
      let v = Json.int c in
      if !k >= 0 then begin
        let e = Graph.find_edge graph ~src:!prev ~dst:v in
        if e < 0 then Json.fail c "path: missing edge";
        if !k = Array.length !ids then ids := Array.append !ids !ids;
        !ids.(!k) <- e
      end;
      prev := v;
      incr k);
  if !k < 1 then Json.fail c "path: need at least two nodes";
  try Path.of_ids graph (Array.sub !ids 0 !k)
  with Invalid_argument m -> Json.fail c m

let read_flow_columns graph c =
  let n = ref None and id = ref None and src = ref None and dst = ref None in
  let size_mbit = ref None and duration_s = ref None and arrival_s = ref None in
  let path = ref None in
  Json.fields c (function
    | "n" -> put c n Json.int
    | "id" -> put c id (array_of ?hint:!n 0 Json.int)
    | "src" -> put c src (array_of ?hint:!n 0 Json.int)
    | "dst" -> put c dst (array_of ?hint:!n 0 Json.int)
    | "size_mbit" -> put c size_mbit Json.string_span
    | "duration_s" -> put c duration_s Json.string_span
    | "arrival_s" -> put c arrival_s Json.string_span
    | "path" ->
        let ids = ref (Array.make 8 0) in
        put c path (fun c -> Array.of_list (list_of (read_path graph ids) c))
    | _ -> Json.skip c);
  let n = get c "n" n in
  let id = column c "id" ~n id in
  let src = column c "src" ~n src in
  let dst = column c "dst" ~n dst in
  let size_mbit = float_column c "size_mbit" ~n size_mbit in
  let duration_s = float_column c "duration_s" ~n duration_s in
  let arrival_s = float_column c "arrival_s" ~n arrival_s in
  let path = column c "path" ~n path in
  List.init n (fun i ->
      let record =
        try
          Flow_record.v ~id:id.(i) ~src:src.(i) ~dst:dst.(i)
            ~size_mbit:size_mbit.(i) ~duration_s:duration_s.(i)
            ~arrival_s:arrival_s.(i)
        with Invalid_argument m -> Json.fail c m
      in
      { Net_state.record; path = path.(i) })

let add_net_frozen buf (fz : Net_state.frozen) =
  let each add a buf = add_list buf add (Array.to_list a) in
  let float buf f = Json.to_buf buf (Json.Float f) in
  let bool buf b = Json.to_buf buf (Json.Bool b) in
  add_obj buf
    [
      ("flows", fun buf -> add_flow_columns buf fz.Net_state.fz_flows);
      ("residual", each float fz.Net_state.fz_residual);
      ("degraded", each float fz.Net_state.fz_degraded);
      ("disabled", each bool fz.Net_state.fz_disabled);
      ("versions", each Json.add_int fz.Net_state.fz_versions);
      ("disabled_epoch", tree (Json.Int fz.Net_state.fz_disabled_epoch));
      ("util_sum", tree (Json.Float fz.Net_state.fz_util_sum));
      ("util_comp", tree (Json.Float fz.Net_state.fz_util_comp));
    ]

let read_net_frozen graph c =
  let flows = ref None and residual = ref None and degraded = ref None in
  let disabled = ref None and versions = ref None and epoch = ref None in
  let util_sum = ref None and util_comp = ref None in
  Json.fields c (function
    | "flows" -> put c flows (read_flow_columns graph)
    | "residual" -> put c residual (array_of 0.0 finite)
    | "degraded" -> put c degraded (array_of 0.0 finite)
    | "disabled" -> put c disabled (array_of false Json.bool)
    | "versions" -> put c versions (array_of 0 Json.int)
    | "disabled_epoch" -> put c epoch Json.int
    | "util_sum" -> put c util_sum finite
    | "util_comp" -> put c util_comp finite
    | _ -> Json.skip c);
  {
    Net_state.fz_flows = get c "flows" flows;
    fz_residual = get c "residual" residual;
    fz_degraded = get c "degraded" degraded;
    fz_disabled = get c "disabled" disabled;
    fz_versions = get c "versions" versions;
    fz_disabled_epoch = get c "disabled_epoch" epoch;
    fz_util_sum = get c "util_sum" util_sum;
    fz_util_comp = get c "util_comp" util_comp;
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
let add_expiry_columns buf expiry =
  add_obj buf
    [
      ("n", fun buf -> Json.add_int buf (List.length expiry));
      ( "dep_s",
        fun buf -> add_float_column buf (Array.of_list (List.map fst expiry)) );
      ( "flow_id",
        fun buf ->
          add_list buf (fun buf (_, id) -> Json.add_int buf id) expiry );
    ]

let read_expiry_columns c =
  let n = ref None and dep_s = ref None and flow_id = ref None in
  Json.fields c (function
    | "n" -> put c n Json.int
    | "dep_s" -> put c dep_s Json.string_span
    | "flow_id" -> put c flow_id (array_of ?hint:!n 0 Json.int)
    | _ -> Json.skip c);
  let n = get c "n" n in
  let dep_s = float_column c "dep_s" ~n dep_s in
  let flow_id = column c "flow_id" ~n flow_id in
  List.init n (fun i -> (dep_s.(i), flow_id.(i)))

let add_stepper_frozen buf (fz : Engine.Stepper.frozen) =
  let trees f l = tree (Json.List (List.map f l)) in
  add_obj buf
    [
      ("policy", tree (policy_to_json fz.Engine.Stepper.fz_policy));
      ("pending", trees event_to_json fz.Engine.Stepper.fz_pending);
      ("queue", trees event_to_json fz.Engine.Stepper.fz_queue);
      ("held", trees held_to_json fz.Engine.Stepper.fz_held);
      ("now_s", tree (Json.Float fz.Engine.Stepper.fz_now));
      ("rounds", tree (Json.Int fz.Engine.Stepper.fz_rounds));
      ("results", trees event_result_to_json fz.Engine.Stepper.fz_results);
      ("log", trees round_info_to_json fz.Engine.Stepper.fz_log);
      ("units", tree (Json.Int fz.Engine.Stepper.fz_units));
      ("next_churn_id", tree (Json.Int fz.Engine.Stepper.fz_next_churn_id));
      ( "expiry",
        fun buf -> add_expiry_columns buf fz.Engine.Stepper.fz_expiry );
      ("rng", tree (int64_to_json fz.Engine.Stepper.fz_rng));
    ]

let read_stepper_frozen c =
  let policy = ref None and pending = ref None and queue = ref None in
  let held = ref None and now = ref None and rounds = ref None in
  let results = ref None and log = ref None and units = ref None in
  let next_churn_id = ref None and expiry = ref None and rng = ref None in
  Json.fields c (function
    | "policy" -> put c policy (sub policy_of_json)
    | "pending" -> put c pending (list_of (sub event_of_json))
    | "queue" -> put c queue (list_of (sub event_of_json))
    | "held" -> put c held (list_of (sub held_of_json))
    | "now_s" -> put c now finite
    | "rounds" -> put c rounds Json.int
    | "results" -> put c results (list_of (sub event_result_of_json))
    | "log" -> put c log (list_of (sub round_info_of_json))
    | "units" -> put c units Json.int
    | "next_churn_id" -> put c next_churn_id Json.int
    | "expiry" -> put c expiry read_expiry_columns
    | "rng" -> put c rng (sub int64_of_json)
    | _ -> Json.skip c);
  {
    Engine.Stepper.fz_policy = get c "policy" policy;
    fz_pending = get c "pending" pending;
    fz_queue = get c "queue" queue;
    fz_held = get c "held" held;
    fz_now = get c "now_s" now;
    fz_rounds = get c "rounds" rounds;
    fz_results = get c "results" results;
    fz_log = get c "log" log;
    fz_units = get c "units" units;
    fz_next_churn_id = get c "next_churn_id" next_churn_id;
    fz_expiry = get c "expiry" expiry;
    fz_rng = get c "rng" rng;
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
             (fun (tenant, (admitted, drained)) ->
               Json.Obj
                 [
                   ("tenant", Json.String tenant);
                   ("admitted", Json.Int admitted);
                   (* Admission never sheds; the key stays so
                      checkpoint bytes do not move. *)
                   ("shed", Json.Int 0);
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
        if shed <> 0 then
          Error
            (Printf.sprintf
               "admission stats: tenant %S shed %d request(s); the shedding \
                policies (drop-newest, drop-oldest, tenant-quota) are gone"
               tenant shed)
        else Ok (tenant, (admitted, drained)))
      sl
  in
  Ok { Admission.fz_next_seq; fz_tenants; fz_queues; fz_stats }
