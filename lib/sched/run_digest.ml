module Fnv = Nu_obs.Fnv

(* A single digest passes through unchanged, so a one-shard fabric's
   combined digest equals its lone controller's — the N=1 differential
   against single-controller serving compares raw strings. *)
let combine = function
  | [ d ] -> d
  | ds ->
      let h =
        List.fold_left (fun h d -> Fnv.int (Fnv.string h d) 0x1f) Fnv.basis ds
      in
      Fnv.hex h

let of_run (r : Engine.run_result) =
  let h = ref Fnv.basis in
  Array.iter
    (fun (e : Engine.event_result) ->
      h := Fnv.int !h e.Engine.event_id;
      h := Fnv.float !h e.Engine.arrival_s;
      h := Fnv.float !h e.Engine.start_s;
      h := Fnv.float !h e.Engine.completion_s;
      h := Fnv.float !h e.Engine.cost_mbit;
      h := Fnv.int !h e.Engine.plan_work_units;
      h := Fnv.int !h e.Engine.failed_items;
      h := Fnv.int !h (if e.Engine.co_scheduled then 1 else 0))
    r.Engine.events;
  h := Fnv.int !h r.Engine.rounds;
  h := Fnv.int !h r.Engine.total_plan_units;
  h := Fnv.float !h r.Engine.total_cost_mbit;
  h := Fnv.float !h r.Engine.makespan_s;
  (* fabric_utilization is deliberately left out: it is telemetry whose
     low-order bits depend on summation order (the incremental Kahan sum
     vs a fresh fold), not a scheduling decision. The digest covers the
     decisions — ECTs, costs, rounds, batches, work units. *)
  List.iter
    (fun (ri : Engine.round_info) ->
      h := Fnv.float !h ri.Engine.round_start_s;
      List.iter (fun id -> h := Fnv.int !h id) ri.Engine.executed;
      h := Fnv.int !h ri.Engine.round_units)
    r.Engine.rounds_log;
  Fnv.hex !h
