type point = {
  mean_flows : int;
  flow_avg_ect : float;
  flow_tail_ect : float;
  event_avg_ect : float;
  event_tail_ect : float;
}

let n_events = 10
let means = [ 15; 25; 35; 45; 55; 65; 75 ]

let compute ?(seeds = [ 42; 43 ]) () =
  List.map
    (fun mean ->
      let setup =
        {
          Workload.default_setup with
          Workload.n_events;
          shape = Event_gen.Range (mean - 5, mean + 5);
        }
      in
      let results =
        Workload.averaged setup ~seeds
          [ Policy.Flow_level Policy.Round_robin; Policy.Fifo ]
      in
      match results with
      | [ (_, flow_summaries); (_, event_summaries) ] ->
          {
            mean_flows = mean;
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
    means

let run ?seeds () =
  let points = compute ?seeds () in
  let flow_avg_max =
    List.fold_left (fun m p -> max m p.flow_avg_ect) 0.0 points
  in
  let flow_tail_max =
    List.fold_left (fun m p -> max m p.flow_tail_ect) 0.0 points
  in
  let table =
    Table.create
      ~title:
        "Fig.4: avg & tail ECT, flow-level vs event-level, 10 events, util \
         ~70% (normalised by flow-level max)"
      ~columns:
        [
          "flows/event";
          "fl_avg";
          "fl_tail";
          "el_avg";
          "el_tail";
          "avg_speedup";
          "tail_speedup";
        ]
  in
  List.iter
    (fun p ->
      Table.add_floats table
        [
          float_of_int p.mean_flows;
          p.flow_avg_ect /. flow_avg_max;
          p.flow_tail_ect /. flow_tail_max;
          p.event_avg_ect /. flow_avg_max;
          p.event_tail_ect /. flow_tail_max;
          p.flow_avg_ect /. p.event_avg_ect;
          p.flow_tail_ect /. p.event_tail_ect;
        ])
    points;
  Table.print table
