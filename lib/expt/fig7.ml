type point = {
  utilization : float;
  het_avg_red : float;
  het_tail_red : float;
  sync_avg_red : float;
  sync_tail_red : float;
}

let n_events = 30
let utilizations = [ 0.5; 0.6; 0.7; 0.8; 0.9 ]

let reductions ?seeds ~alpha ~utilization shape =
  let seeds = Option.value seeds ~default:[ 42; 43 ] in
  let setup =
    {
      Workload.default_setup with
      Workload.n_events;
      shape;
      utilization;
      churn = false;  (* §V-D: background kept static *)
    }
  in
  let results =
    Workload.averaged setup ~seeds [ Policy.Fifo; Policy.Plmtf { alpha } ]
  in
  match results with
  | [ (_, fifo); (_, plmtf) ] ->
      let mean = Workload.mean_of in
      let avg s = s.Metrics.avg_ect_s and tail s = s.Metrics.tail_ect_s in
      ( Workload.reduction_pct ~baseline:(mean avg fifo) (mean avg plmtf),
        Workload.reduction_pct ~baseline:(mean tail fifo) (mean tail plmtf) )
  | _ -> assert false

let compute ?seeds ?(alpha = Policy.default_alpha) () =
  List.map
    (fun utilization ->
      let het_avg_red, het_tail_red =
        reductions ?seeds ~alpha ~utilization Event_gen.Heterogeneous
      in
      let sync_avg_red, sync_tail_red =
        reductions ?seeds ~alpha ~utilization Event_gen.Synchronous
      in
      { utilization; het_avg_red; het_tail_red; sync_avg_red; sync_tail_red })
    utilizations

let run ?seeds ?alpha () =
  let points = compute ?seeds ?alpha () in
  let table =
    Table.create
      ~title:
        "Fig.7: P-LMTF reduction vs FIFO by event type (30 events, static \
         background, alpha=4)"
      ~columns:
        [
          "util";
          "het_avg_red%";
          "het_tail_red%";
          "sync_avg_red%";
          "sync_tail_red%";
        ]
  in
  List.iter
    (fun p ->
      Table.add_floats table
        [
          p.utilization;
          p.het_avg_red;
          p.het_tail_red;
          p.sync_avg_red;
          p.sync_tail_red;
        ])
    points;
  Table.print table
