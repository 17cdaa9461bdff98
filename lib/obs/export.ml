let value_to_json : Trace.value -> Json.t = function
  | Trace.Bool b -> Json.Bool b
  | Trace.Int i -> Json.Int i
  | Trace.Float f -> Json.Float f
  | Trace.Str s -> Json.String s

let attrs_to_json attrs =
  Json.Obj (List.map (fun (k, v) -> (k, value_to_json v)) attrs)

let phase_string = function
  | Trace.Begin -> "B"
  | Trace.End -> "E"
  | Trace.Instant -> "i"

(* Lifecycle instants stamped by [Lifecycle] carry a request id and a
   flow phase ("s" start / "t" step / "f" finish); rendered as Chrome
   flow events they draw arrows linking one request's stamps across the
   span tree. *)
let flow_of e =
  if e.Trace.name <> "lifecycle" then None
  else
    match
      ( List.assoc_opt "flow" e.Trace.attrs,
        List.assoc_opt "id" e.Trace.attrs )
    with
    | Some (Trace.Str ph), Some (Trace.Int id)
      when ph = "s" || ph = "t" || ph = "f" ->
        Some (ph, id)
    | _ -> None

let chrome_of_events events =
  let t0 =
    match events with [] -> 0L | e :: _ -> e.Trace.ts_ns
  in
  let ts_us e =
    Int64.to_float (Int64.sub e.Trace.ts_ns t0) /. 1_000.0
  in
  let one e =
    let base =
      [
        ("name", Json.String e.Trace.name);
        ("ph", Json.String (phase_string e.Trace.phase));
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
        ("ts", Json.Float (ts_us e));
        ("args", attrs_to_json e.Trace.attrs);
      ]
    in
    match flow_of e with
    | Some (ph, id) ->
        let flow =
          [
            ("name", Json.String "request");
            ("cat", Json.String "lifecycle");
            ("ph", Json.String ph);
            ("id", Json.Int id);
            ("pid", Json.Int 1);
            ("tid", Json.Int 1);
            ("ts", Json.Float (ts_us e));
            ("args", attrs_to_json e.Trace.attrs);
          ]
        in
        (* Flow ends bind to the enclosing slice. *)
        if ph = "f" then Json.Obj (flow @ [ ("bp", Json.String "e") ])
        else Json.Obj flow
    | None -> (
        (* Instant events need a scope; "t" = thread. *)
        match e.Trace.phase with
        | Trace.Instant -> Json.Obj (base @ [ ("s", Json.String "t") ])
        | Trace.Begin | Trace.End -> Json.Obj base)
  in
  Json.Obj
    [
      ("traceEvents", Json.List (List.map one events));
      ("displayTimeUnit", Json.String "ms");
    ]

let write_chrome path events =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string (chrome_of_events events));
      output_char oc '\n')
