type report = {
  placed : int;
  rejected : int;
  achieved_utilization : float;
  placed_ids : int list;
}

(* After this many rejected attempts in a row the flow scale halves;
   the fill gives up once the scale falls below [min_scale]. *)
let max_consecutive_failures = 50
let min_scale = 1.0 /. 64.0

let fill ?(policy = Routing.First_fit) ?rng
    ?(utilization = Net_state.mean_utilization)
    ?(accept = fun _ _ _ -> true) net ~target ~make_flow ~first_id =
  if target < 0.0 || target >= 1.0 then invalid_arg "Background.fill: target";
  let placed = ref 0 and rejected = ref 0 and placed_ids = ref [] in
  let next_id = ref first_id in
  let scale = ref 1.0 in
  let consecutive_failures = ref 0 in
  let stop = ref false in
  while (not !stop) && utilization net < target do
    let id = !next_id in
    incr next_id;
    let record = make_flow ~id ~scale:!scale in
    let outcome =
      match Routing.select ?rng ~policy net record with
      | None -> Error ()
      | Some path ->
          if not (accept net record path) then Error ()
          else (
            match Net_state.place net record path with
            | Ok () -> Ok ()
            | Error _ -> Error ())
    in
    match outcome with
    | Ok () ->
        incr placed;
        consecutive_failures := 0;
        placed_ids := record.Flow_record.id :: !placed_ids
    | Error () ->
        incr rejected;
        incr consecutive_failures;
        if !consecutive_failures >= max_consecutive_failures then begin
          consecutive_failures := 0;
          scale := !scale /. 2.0;
          if !scale < min_scale then stop := true
        end
  done;
  {
    placed = !placed;
    rejected = !rejected;
    achieved_utilization = utilization net;
    placed_ids = List.rev !placed_ids;
  }

let scaled_record ~scale (r : Flow_record.t) =
  if scale >= 1.0 then r
  else
    Flow_record.v ~id:r.id ~src:r.src ~dst:r.dst
      ~size_mbit:(r.size_mbit *. scale) ~duration_s:r.duration_s
      ~arrival_s:r.arrival_s

let yahoo_flow_maker rng ~host_count ~id ~scale =
  let flows = Yahoo_trace.generate ~first_id:id rng ~host_count ~n:1 in
  scaled_record ~scale flows.(0)

let benson_flow_maker rng ~host_count ~id ~scale =
  let flows = Benson_trace.generate ~first_id:id rng ~host_count ~n:1 in
  scaled_record ~scale flows.(0)
