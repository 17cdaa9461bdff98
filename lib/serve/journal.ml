module Json = Nu_obs.Json
module Store = Nu_obs.Store

let ( let* ) = Result.bind

type entry =
  | Arrive of { tick : int; request : Request.t }
  | Tick_done of int

let entry_to_json = function
  | Arrive { tick; request } ->
      Json.Obj
        [
          ("op", Json.String "arrive");
          ("tick", Json.Int tick);
          ("request", Codec.request_to_json request);
        ]
  | Tick_done tick ->
      Json.Obj [ ("op", Json.String "tick_done"); ("tick", Json.Int tick) ]

let entry_of_json j =
  let* op = Codec.string_field "op" j in
  match op with
  | "arrive" ->
      let* tick = Codec.int_field "tick" j in
      let* rj = Codec.field "request" j in
      let* request = Codec.request_of_json rj in
      Ok (Arrive { tick; request })
  | "tick_done" ->
      let* tick = Codec.int_field "tick" j in
      Ok (Tick_done tick)
  | op -> Error ("unknown journal op: " ^ op)

type writer = Store.writer

let open_writer = Store.open_writer
let segment_path = Store.segment_path
let write w entry = Store.append w (Json.to_string (entry_to_json entry))
let entries_written = Store.records_written

type 'a log_report = 'a Store.report = {
  entries : 'a list;
  corrupt : Store.corrupt_frame list;
  frames : int;
  segments : int;
}

type report = entry log_report

let decode payload =
  let* j = Json.of_string payload in
  entry_of_json j

let read_report ?fault path = Store.read_report ?fault ~decode path

(* Group a journal into completed ticks. Entries for one tick are its
   [Arrive]s followed by the [Tick_done] commit marker; a trailing run
   of [Arrive]s without a marker is a tick that crashed mid-flight and
   is discarded — on resume the deterministic source regenerates those
   arrivals exactly. *)
let committed_ticks entries =
  let rec go cur acc = function
    | [] -> List.rev acc
    | Arrive { tick; request } :: rest -> go ((tick, request) :: cur) acc rest
    | Tick_done tick :: rest ->
        let mine =
          List.rev_map snd (List.filter (fun (t, _) -> t = tick) cur)
        in
        let others = List.filter (fun (t, _) -> t <> tick) cur in
        go others ((tick, mine) :: acc) rest
  in
  go [] [] entries

let write_committed w ~below groups =
  List.iter
    (fun (tick, reqs) ->
      if tick < below then begin
        List.iter (fun request -> write w (Arrive { tick; request })) reqs;
        write w (Tick_done tick)
      end)
    groups;
  Store.flush w

type commits = Empty | Committed of int

let last_commit entries =
  List.fold_left
    (fun acc e ->
      match e with
      | Tick_done t -> (
          match acc with
          | Empty -> Committed t
          | Committed u -> Committed (max t u))
      | Arrive _ -> acc)
    Empty entries
