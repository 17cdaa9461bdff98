type t = { tenant : string; event : Event.t }

let v ~tenant event =
  if tenant = "" then invalid_arg "Request.v: empty tenant";
  { tenant; event }

let event_id t = t.event.Event.id
