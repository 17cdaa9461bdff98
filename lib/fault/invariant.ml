module Trace = Nu_obs.Trace
module Counters = Nu_obs.Counters

type violation = { name : string; detail : string }

(* The sweeps' callbacks: top-level functions over the accumulator the
   sweep hands back, so a check builds no closure. A sweep reports every
   blackhole before any overdrawn edge. *)
let add_blackhole acc ~flow ~edge =
  acc :=
    {
      name = "blackhole";
      detail = Printf.sprintf "flow %d crosses disabled edge %d" flow edge;
    }
    :: !acc

let add_overdrawn acc ~edge ~residual =
  acc :=
    {
      name = "capacity";
      detail = Printf.sprintf "edge %d residual %.3f < 0" edge residual;
    }
    :: !acc

(* One structural sweep's result as violations: the blackholes, then
   the overdrawn edges, both collected into [acc] in sweep order, then
   consistency. *)
let report acc consistency =
  (match consistency with
  | Ok () -> ()
  | Error detail -> acc := { name = "consistency"; detail } :: !acc);
  match !acc with
  | [] -> []
  | rev ->
      let violations = List.rev rev in
      if Trace.enabled () then
        List.iter
          (fun v ->
            Trace.instant "invariant_violation"
              ~attrs:
                [ ("name", Trace.Str v.name); ("detail", Trace.Str v.detail) ])
          violations;
      violations

let check net =
  Counters.incr Counters.Invariant_checks;
  let acc = ref [] in
  let consistency =
    Net_state.sweep net ~blackhole:add_blackhole ~overdrawn:add_overdrawn acc
  in
  report acc consistency

let check_changed net ~flows ~n =
  let acc = ref [] in
  let consistency =
    Net_state.sweep_changed net ~flows ~n ~blackhole:add_blackhole
      ~overdrawn:add_overdrawn acc
  in
  report acc consistency
