type point = {
  n_events : int;
  lmtf_avg_q_red : float;
  lmtf_worst_q_red : float;
  plmtf_avg_q_red : float;
  plmtf_worst_q_red : float;
}

let of_sweep =
  List.map (fun { Fig6.sweep_events; fifo; lmtf; plmtf } ->
      let mean = Workload.mean_of in
      let avg_q s = s.Metrics.avg_queuing_s in
      let worst_q s = s.Metrics.worst_queuing_s in
      let red get better =
        Workload.reduction_pct ~baseline:(mean get fifo) (mean get better)
      in
      {
        n_events = sweep_events;
        lmtf_avg_q_red = red avg_q lmtf;
        lmtf_worst_q_red = red worst_q lmtf;
        plmtf_avg_q_red = red avg_q plmtf;
        plmtf_worst_q_red = red worst_q plmtf;
      })

let print points =
  let table =
    Table.create
      ~title:
        "Fig.8: queuing-delay reduction vs FIFO (heterogeneous events, \
         alpha=4)"
      ~columns:
        [
          "events";
          "lmtf_avgQ_red%";
          "lmtf_worstQ_red%";
          "plmtf_avgQ_red%";
          "plmtf_worstQ_red%";
        ]
  in
  List.iter
    (fun p ->
      Table.add_floats table
        [
          float_of_int p.n_events;
          p.lmtf_avg_q_red;
          p.lmtf_worst_q_red;
          p.plmtf_avg_q_red;
          p.plmtf_worst_q_red;
        ])
    points;
  Table.print table

let run ?seeds ?alpha () = print (of_sweep (Fig6.sweep ?seeds ?alpha ()))
