module Json = Nu_obs.Json

let ( let* ) = Result.bind

type spec =
  | Synthetic of {
      seed : int;
      rate_per_tick : float;
      flows_per_event : int;
      tenants : string list;
      first_event_id : int;
      first_flow_id : int;
    }
  | Stream of string

type synth = {
  mutable sy_rng : Prng.t;
  sy_rate : float;
  sy_flows_per_event : int;
  sy_tenants : string array;
  sy_host_count : int;
  mutable sy_next_event_id : int;
  mutable sy_next_flow_id : int;
  mutable sy_tenant_cursor : int;
}

type stream = {
  st_entries : (int * Request.t) array;  (* (tick, request), tick-sorted *)
  mutable st_pos : int;
}

type t = Synth of synth | Streamed of stream

(* Serve workloads follow the batch scenario's flow marginals: Benson
   characteristics with elephants capped to stay under access-link
   headroom. *)
let params =
  { Benson_trace.default_params with Benson_trace.elephant_demand_hi_mbps = 100.0 }

let validate_synth ~rate_per_tick ~flows_per_event ~tenants ~host_count =
  if rate_per_tick < 0.0 || not (Float.is_finite rate_per_tick) then
    invalid_arg "Source.create: rate_per_tick must be finite and >= 0";
  if flows_per_event <= 0 then
    invalid_arg "Source.create: flows_per_event must be > 0";
  if tenants = [] then invalid_arg "Source.create: no tenants";
  if List.exists (fun t -> t = "") tenants then
    invalid_arg "Source.create: empty tenant label";
  if host_count < 2 then invalid_arg "Source.create: need >= 2 hosts"

(* Every installed flow's endpoints must be hosts of the fabric being
   served: caught here, a bad command fails the load instead of the
   tick that surfaces it. *)
let check_hosts ~host_count (req : Request.t) =
  let outside end_ (fr : Flow_record.t) h =
    if h >= 0 && h < host_count then None
    else
      Some
        (Printf.sprintf "flow %d %s host %d outside [0, %d)" fr.Flow_record.id
           end_ h host_count)
  in
  let bad = function
    | Event.Install fr -> (
        match outside "src" fr fr.Flow_record.src with
        | Some _ as e -> e
        | None -> outside "dst" fr fr.Flow_record.dst)
    | Event.Reroute _ -> None
  in
  match List.find_map bad req.Request.event.Event.work with
  | Some msg -> Error msg
  | None -> Ok ()

let parse_stream_file ~host_count path =
  let ic =
    try open_in path
    with Sys_error msg -> invalid_arg ("Source.create: " ^ msg)
  in
  let rec go lineno acc =
    match input_line ic with
    | exception End_of_file ->
        close_in ic;
        List.rev acc
    | line when String.trim line = "" -> go (lineno + 1) acc
    | line -> (
        let entry =
          let* j = Json.of_string line in
          let* tick = Codec.int_field "tick" j in
          let* req = Codec.request_of_json j in
          let* () = check_hosts ~host_count req in
          if tick < 0 then Error "negative tick" else Ok (tick, req)
        in
        match entry with
        | Ok e -> go (lineno + 1) (e :: acc)
        | Error msg ->
            close_in ic;
            invalid_arg (Printf.sprintf "Source.create: %s:%d: %s" path lineno msg))
  in
  let entries = go 1 [] in
  let arr = Array.of_list entries in
  let sorted = Array.copy arr in
  Array.stable_sort (fun (a, _) (b, _) -> compare a b) sorted;
  if sorted <> arr then
    invalid_arg ("Source.create: " ^ path ^ ": entries must be tick-sorted");
  arr

let create ~host_count spec =
  match spec with
  | Synthetic
      { seed; rate_per_tick; flows_per_event; tenants; first_event_id;
        first_flow_id } ->
      validate_synth ~rate_per_tick ~flows_per_event ~tenants ~host_count;
      Synth
        {
          sy_rng = Prng.create seed;
          sy_rate = rate_per_tick;
          sy_flows_per_event = flows_per_event;
          sy_tenants = Array.of_list tenants;
          sy_host_count = host_count;
          sy_next_event_id = first_event_id;
          sy_next_flow_id = first_flow_id;
          sy_tenant_cursor = 0;
        }
  | Stream path ->
      Streamed { st_entries = parse_stream_file ~host_count path; st_pos = 0 }

(* Knuth's product-of-uniforms Poisson draw: exact, and consumes a
   deterministic (count-dependent) number of PRNG draws. *)
let poisson rng lambda =
  if lambda <= 0.0 then 0
  else begin
    let limit = exp (-.lambda) in
    let rec go k p =
      let p = p *. Prng.unit_float rng in
      if p <= limit then k else go (k + 1) p
    in
    go 0 1.0
  end

let draw_event sy ~now_s =
  let id = sy.sy_next_event_id in
  sy.sy_next_event_id <- id + 1;
  let work =
    List.init sy.sy_flows_per_event (fun _ ->
        let fid = sy.sy_next_flow_id in
        sy.sy_next_flow_id <- fid + 1;
        let src = Prng.int sy.sy_rng sy.sy_host_count in
        let d = Prng.int sy.sy_rng (sy.sy_host_count - 1) in
        let dst = if d >= src then d + 1 else d in
        Event.Install
          (Benson_trace.draw_flow ~params sy.sy_rng ~id:fid ~src
             ~dst ~arrival_s:now_s))
  in
  let tenant = sy.sy_tenants.(sy.sy_tenant_cursor) in
  sy.sy_tenant_cursor <- (sy.sy_tenant_cursor + 1) mod Array.length sy.sy_tenants;
  Request.v ~tenant
    { Event.id; arrival_s = now_s; kind = Event.Additions; work }

let poll t ~tick ~now_s =
  match t with
  | Synth sy ->
      let n = poisson sy.sy_rng sy.sy_rate in
      List.init n (fun _ -> draw_event sy ~now_s)
  | Streamed st ->
      let out = ref [] in
      let continue = ref true in
      while !continue && st.st_pos < Array.length st.st_entries do
        let etick, req = st.st_entries.(st.st_pos) in
        if etick <= tick then begin
          st.st_pos <- st.st_pos + 1;
          (* Arrival semantics: a command surfaces when the controller
             reaches its tick; its event is re-stamped to that instant. *)
          let ev = { req.Request.event with Event.arrival_s = now_s } in
          out := { req with Request.event = ev } :: !out
        end
        else continue := false
      done;
      List.rev !out

(* ------------------------------------------------------------------ *)
(* Freeze/thaw.                                                        *)

type frozen =
  | F_synthetic of {
      rng : int64;
      next_event_id : int;
      next_flow_id : int;
      tenant_cursor : int;
    }
  | F_stream of { pos : int }

let freeze = function
  | Synth sy ->
      F_synthetic
        {
          rng = Prng.raw_state sy.sy_rng;
          next_event_id = sy.sy_next_event_id;
          next_flow_id = sy.sy_next_flow_id;
          tenant_cursor = sy.sy_tenant_cursor;
        }
  | Streamed st -> F_stream { pos = st.st_pos }

let thaw ~host_count spec fz =
  let t = create ~host_count spec in
  (match (t, fz) with
  | Synth sy, F_synthetic f ->
      (* Replace the freshly seeded stream with the frozen cursor. *)
      sy.sy_rng <- Prng.of_raw_state f.rng;
      sy.sy_next_event_id <- f.next_event_id;
      sy.sy_next_flow_id <- f.next_flow_id;
      sy.sy_tenant_cursor <- f.tenant_cursor
  | Streamed st, F_stream f ->
      if f.pos < 0 || f.pos > Array.length st.st_entries then
        invalid_arg "Source.thaw: stream position out of range";
      st.st_pos <- f.pos
  | Synth _, F_stream _ | Streamed _, F_synthetic _ ->
      invalid_arg "Source.thaw: frozen state does not match spec");
  t

let frozen_to_json = function
  | F_synthetic { rng; next_event_id; next_flow_id; tenant_cursor } ->
      Json.Obj
        [
          ("kind", Json.String "synthetic");
          ("rng", Codec.int64_to_json rng);
          ("next_event_id", Json.Int next_event_id);
          ("next_flow_id", Json.Int next_flow_id);
          ("tenant_cursor", Json.Int tenant_cursor);
        ]
  | F_stream { pos } ->
      Json.Obj [ ("kind", Json.String "stream"); ("pos", Json.Int pos) ]

let frozen_of_json j =
  let* kind = Codec.string_field "kind" j in
  match kind with
  | "synthetic" ->
      let* rj = Codec.field "rng" j in
      let* rng = Codec.int64_of_json rj in
      let* next_event_id = Codec.int_field "next_event_id" j in
      let* next_flow_id = Codec.int_field "next_flow_id" j in
      let* tenant_cursor = Codec.int_field "tenant_cursor" j in
      Ok (F_synthetic { rng; next_event_id; next_flow_id; tenant_cursor })
  | "stream" ->
      let* pos = Codec.int_field "pos" j in
      Ok (F_stream { pos })
  | k -> Error ("unknown source kind: " ^ k)
