type t = {
  id : int;
  src : int;
  dst : int;
  size_mbit : float;
  duration_s : float;
  arrival_s : float;
}

let v ~id ~src ~dst ~size_mbit ~duration_s ~arrival_s =
  if src < 0 || dst < 0 then invalid_arg "Flow_record.v: negative endpoint";
  if src = dst then invalid_arg "Flow_record.v: src = dst";
  if size_mbit <= 0.0 then invalid_arg "Flow_record.v: size must be positive";
  if duration_s <= 0.0 then
    invalid_arg "Flow_record.v: duration must be positive";
  if arrival_s < 0.0 then invalid_arg "Flow_record.v: negative arrival";
  (* NaN passes every comparison above; an infinite size or duration
     would place a flow of NaN or zero demand. *)
  if
    not
      (Float.is_finite size_mbit && Float.is_finite duration_s
     && Float.is_finite arrival_s)
  then invalid_arg "Flow_record.v: non-finite size, duration or arrival";
  { id; src; dst; size_mbit; duration_s; arrival_s }

let demand_mbps t = t.size_mbit /. t.duration_s
