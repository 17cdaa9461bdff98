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
  { id; src; dst; size_mbit; duration_s; arrival_s }

let demand_mbps t = t.size_mbit /. t.duration_s
