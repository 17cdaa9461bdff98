type point = {
  n_events : int;
  flow_avg_ect : float;
  flow_tail_ect : float;
  event_avg_ect : float;
  event_tail_ect : float;
}

let event_counts = [ 10; 20; 30; 40; 50 ]

let compute ?(seeds = [ 42; 43 ]) () =
  List.map
    (fun n_events ->
      let setup = { Workload.default_setup with Workload.n_events } in
      let results =
        Workload.averaged setup ~seeds
          [ Policy.Flow_level Policy.Round_robin; Policy.Fifo ]
      in
      match results with
      | [ (_, flow_summaries); (_, event_summaries) ] ->
          {
            n_events;
            flow_avg_ect =
              Workload.mean_of (fun s -> s.Metrics.avg_ect_s) flow_summaries;
            flow_tail_ect =
              Workload.mean_of (fun s -> s.Metrics.tail_ect_s) flow_summaries;
            event_avg_ect =
              Workload.mean_of (fun s -> s.Metrics.avg_ect_s) event_summaries;
            event_tail_ect =
              Workload.mean_of (fun s -> s.Metrics.tail_ect_s) event_summaries;
          }
      | _ -> assert false)
    event_counts

let run ?seeds () =
  let points = compute ?seeds () in
  let table =
    Table.create
      ~title:
        "Fig.5: avg & tail ECT vs number of queued events (10-100 \
         flows/event, util 70%)"
      ~columns:
        [
          "events";
          "fl_avg_s";
          "fl_tail_s";
          "el_avg_s";
          "el_tail_s";
          "avg_speedup";
          "tail_speedup";
        ]
  in
  List.iter
    (fun p ->
      Table.add_floats table
        [
          float_of_int p.n_events;
          p.flow_avg_ect;
          p.flow_tail_ect;
          p.event_avg_ect;
          p.event_tail_ect;
          p.flow_avg_ect /. p.event_avg_ect;
          p.flow_tail_ect /. p.event_tail_ect;
        ])
    points;
  Table.print table
