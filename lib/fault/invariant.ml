module Trace = Nu_obs.Trace
module Counters = Nu_obs.Counters

type violation = { name : string; detail : string }

(* One structural sweep, reported as violations: blackholes (collected
   during the sweep), then capacity over every edge, then consistency. *)
let report net sweep =
  let blackholes = ref [] in
  let consistency =
    sweep ~blackhole:(fun ~flow ~edge ->
        blackholes :=
          {
            name = "blackhole";
            detail =
              Printf.sprintf "flow %d crosses disabled edge %d" flow edge;
          }
          :: !blackholes)
  in
  let acc = ref !blackholes in
  let add name detail = acc := { name; detail } :: !acc in
  (* Capacity non-violation: every residual >= 0. *)
  let g = Net_state.graph net in
  for e = 0 to Graph.edge_count g - 1 do
    let r = Net_state.residual net e in
    if r < -1e-6 then
      add "capacity" (Printf.sprintf "edge %d residual %.3f < 0" e r)
  done;
  (match consistency with Ok () -> () | Error msg -> add "consistency" msg);
  let violations = List.rev !acc in
  if Trace.enabled () then
    List.iter
      (fun v ->
        Trace.instant "invariant_violation"
          ~attrs:[ ("name", Trace.Str v.name); ("detail", Trace.Str v.detail) ])
      violations;
  violations

let check net =
  Counters.incr Counters.Invariant_checks;
  report net (Net_state.sweep net)

let check_changed net ~flows = report net (Net_state.sweep_changed net ~flows)
