type point = {
  mean_interarrival_s : float;
  fifo_avg_ect : float;
  lmtf_avg_ect : float;
  plmtf_avg_ect : float;
  fifo_avg_q : float;
  lmtf_avg_q : float;
  plmtf_avg_q : float;
}

let interarrivals = [ 0.25; 0.5; 1.0; 2.0; 4.0 ]

let n_events = 40

let compute ~seed ~alpha =
  let scenario = Scenario.prepare ~utilization:0.70 ~seed () in
  List.map
    (fun mean_interarrival_s ->
      let events =
        Scenario.events
          ~arrivals:(Event_gen.Poisson mean_interarrival_s)
          scenario ~n:n_events
      in
      let summary policy =
        let churn = Scenario.churn ~target:0.70 ~seed:(seed + 2) scenario in
        Metrics.of_run
          (Engine.run ~churn ~seed:(seed + 1)
             ~net:(Net_state.copy scenario.Scenario.net)
             ~events policy)
      in
      let fifo = summary Policy.Fifo in
      let lmtf = summary (Policy.Lmtf { alpha }) in
      let plmtf = summary (Policy.Plmtf { alpha }) in
      {
        mean_interarrival_s;
        fifo_avg_ect = fifo.Metrics.avg_ect_s;
        lmtf_avg_ect = lmtf.Metrics.avg_ect_s;
        plmtf_avg_ect = plmtf.Metrics.avg_ect_s;
        fifo_avg_q = fifo.Metrics.avg_queuing_s;
        lmtf_avg_q = lmtf.Metrics.avg_queuing_s;
        plmtf_avg_q = plmtf.Metrics.avg_queuing_s;
      })
    interarrivals

let run ?(seed = 42) ?(alpha = Policy.default_alpha) () =
  let points = compute ~seed ~alpha in
  let table =
    Table.create
      ~title:
        "Extension: Poisson event arrivals (40 events, util 70%) — avg ECT \
         and queuing delay vs offered load"
      ~columns:
        [
          "interarrival_s";
          "fifo_avgECT";
          "lmtf_avgECT";
          "plmtf_avgECT";
          "fifo_avgQ";
          "lmtf_avgQ";
          "plmtf_avgQ";
        ]
  in
  List.iter
    (fun p ->
      Table.add_floats table
        [
          p.mean_interarrival_s;
          p.fifo_avg_ect;
          p.lmtf_avg_ect;
          p.plmtf_avg_ect;
          p.fifo_avg_q;
          p.lmtf_avg_q;
          p.plmtf_avg_q;
        ])
    points;
  Table.print table
