type row = { event_id : int; fifo_q : float; lmtf_q : float; plmtf_q : float }

let n_events = 30

(* Fig. 9 needs per-event values, not summaries, so it drives the engine
   directly rather than through Workload. *)
let compute ?(seed = 42) ?(alpha = Policy.default_alpha) () =
  let scenario = Scenario.prepare ~utilization:0.70 ~seed () in
  let events = Scenario.events scenario ~n:n_events in
  let run_policy policy =
    let churn = Scenario.churn ~target:0.70 ~seed:(seed + 2) scenario in
    Engine.run ~churn ~seed:(seed + 1)
      ~net:(Net_state.copy scenario.Scenario.net)
      ~events policy
  in
  let fifo = run_policy Policy.Fifo in
  let lmtf = run_policy (Policy.Lmtf { alpha }) in
  let plmtf = run_policy (Policy.Plmtf { alpha }) in
  let q (run : Engine.run_result) i = Engine.queuing_delay run.Engine.events.(i) in
  List.init n_events (fun i ->
      {
        event_id = i;
        fifo_q = q fifo i;
        lmtf_q = q lmtf i;
        plmtf_q = q plmtf i;
      })

let run ?seed ?alpha () =
  let rows = compute ?seed ?alpha () in
  let table =
    Table.create
      ~title:
        "Fig.9: per-event queuing delay, 30 events (util fluctuating, \
         alpha=4)"
      ~columns:[ "event"; "fifo_q_s"; "lmtf_q_s"; "plmtf_q_s" ]
  in
  List.iter
    (fun r ->
      Table.add_floats table
        [ float_of_int r.event_id; r.fifo_q; r.lmtf_q; r.plmtf_q ])
    rows;
  Table.print table;
  let cdf sel = Cdf.of_samples (Array.of_list (List.map sel rows)) in
  Format.printf "  fifo   %a@." Cdf.pp (cdf (fun r -> r.fifo_q));
  Format.printf "  lmtf   %a@." Cdf.pp (cdf (fun r -> r.lmtf_q));
  Format.printf "  p-lmtf %a@." Cdf.pp (cdf (fun r -> r.plmtf_q))
