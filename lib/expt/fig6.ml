type point = {
  n_events : int;
  lmtf_cost_red : float;
  plmtf_cost_red : float;
  lmtf_avg_red : float;
  plmtf_avg_red : float;
  lmtf_tail_red : float;
  plmtf_tail_red : float;
  fifo_plan_s : float;
  lmtf_plan_s : float;
  plmtf_plan_s : float;
}

type sweep_point = {
  sweep_events : int;
  fifo : Metrics.summary list;
  lmtf : Metrics.summary list;
  plmtf : Metrics.summary list;
}

let event_counts = [ 10; 20; 30; 40; 50 ]

let sweep ?(seeds = [ 42; 43; 44 ]) ?(alpha = Policy.default_alpha) () =
  List.map
    (fun n_events ->
      let setup = { Workload.default_setup with Workload.n_events } in
      match
        Workload.averaged setup ~seeds
          [ Policy.Fifo; Policy.Lmtf { alpha }; Policy.Plmtf { alpha } ]
      with
      | [ (_, fifo); (_, lmtf); (_, plmtf) ] ->
          { sweep_events = n_events; fifo; lmtf; plmtf }
      | _ -> assert false)
    event_counts

let of_sweep =
  List.map (fun { sweep_events; fifo; lmtf; plmtf } ->
      let mean get = Workload.mean_of get in
      let cost s = s.Metrics.total_cost_mbit in
      let avg s = s.Metrics.avg_ect_s in
      let tail s = s.Metrics.tail_ect_s in
      let plan s = s.Metrics.total_plan_time_s in
      let red get better =
        Workload.reduction_pct ~baseline:(mean get fifo) (mean get better)
      in
      {
        n_events = sweep_events;
        lmtf_cost_red = red cost lmtf;
        plmtf_cost_red = red cost plmtf;
        lmtf_avg_red = red avg lmtf;
        plmtf_avg_red = red avg plmtf;
        lmtf_tail_red = red tail lmtf;
        plmtf_tail_red = red tail plmtf;
        fifo_plan_s = mean plan fifo;
        lmtf_plan_s = mean plan lmtf;
        plmtf_plan_s = mean plan plmtf;
      })


let print points =
  let table =
    Table.create
      ~title:
        "Fig.6: reductions vs FIFO and plan time (alpha=4, util fluctuating \
         under churn)"
      ~columns:
        [
          "events";
          "cost_red_lmtf%";
          "cost_red_plmtf%";
          "avg_red_lmtf%";
          "avg_red_plmtf%";
          "tail_red_lmtf%";
          "tail_red_plmtf%";
          "plan_fifo_s";
          "plan_lmtf_s";
          "plan_plmtf_s";
        ]
  in
  List.iter
    (fun p ->
      Table.add_floats table
        [
          float_of_int p.n_events;
          p.lmtf_cost_red;
          p.plmtf_cost_red;
          p.lmtf_avg_red;
          p.plmtf_avg_red;
          p.lmtf_tail_red;
          p.plmtf_tail_red;
          p.fifo_plan_s;
          p.lmtf_plan_s;
          p.plmtf_plan_s;
        ])
    points;
  Table.print table

let run ?seeds ?alpha () = print (of_sweep (sweep ?seeds ?alpha ()))
