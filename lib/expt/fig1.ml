type point = {
  trace : string;
  utilization : float;
  p_desired_small : float;
  p_desired_mid : float;
  p_desired_large : float;
  p_desired_all : float;
  p_any_all : float;
}

let utilizations = [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9 ]

(* A probe flow succeeds "without migration" when the checked path has
   residual bandwidth for its demand; probes never mutate the state. *)
let probe net record =
  let demand = Flow_record.demand_mbps record in
  let c = Net_state.candidates net record in
  let desired_ok =
    match Routing.desired record c with
    | -1 -> false
    | d -> Net_state.candidate_feasible net c d ~demand
  in
  let any_ok =
    Routing.select_from ~policy:Routing.First_fit ~eligible:(fun _ -> true) net
      ~demand c
    >= 0
  in
  (desired_ok, any_ok)

let ratio num den = if den = 0 then nan else float_of_int num /. float_of_int den

let point_of ~trace ~utilization ~seed ~samples background make_probe =
  let scenario = Scenario.prepare ~utilization ~seed ~background () in
  let probe_rng = Prng.create (seed + 17) in
  let counts = Hashtbl.create 8 in
  let bump key ok =
    let succ, tot =
      match Hashtbl.find_opt counts key with Some c -> c | None -> (0, 0)
    in
    Hashtbl.replace counts key ((if ok then succ + 1 else succ), tot + 1)
  in
  for i = 0 to samples - 1 do
    let record = make_probe probe_rng scenario i in
    let desired_ok, any_ok = probe scenario.Scenario.net record in
    let demand = Flow_record.demand_mbps record in
    let size_class =
      if demand < 10.0 then `Small else if demand <= 50.0 then `Mid else `Large
    in
    bump `All_desired desired_ok;
    bump `All_any any_ok;
    bump
      (match size_class with
      | `Small -> `Small_desired
      | `Mid -> `Mid_desired
      | `Large -> `Large_desired)
      desired_ok
  done;
  let rate key =
    match Hashtbl.find_opt counts key with
    | Some (succ, tot) -> ratio succ tot
    | None -> nan
  in
  {
    trace;
    utilization;
    p_desired_small = rate `Small_desired;
    p_desired_mid = rate `Mid_desired;
    p_desired_large = rate `Large_desired;
    p_desired_all = rate `All_desired;
    p_any_all = rate `All_any;
  }

let compute ~seed ~samples =
  let yahoo_probe rng (scenario : Scenario.t) i =
    (Yahoo_trace.generate ~first_id:(1_000_000 + i) rng
       ~host_count:scenario.Scenario.host_count ~n:1).(0)
  in
  let benson_probe rng (scenario : Scenario.t) i =
    (Benson_trace.generate ~first_id:(1_000_000 + i) rng
       ~host_count:scenario.Scenario.host_count ~n:1).(0)
  in
  List.concat_map
    (fun u ->
      [
        point_of ~trace:"yahoo" ~utilization:u ~seed ~samples Scenario.Yahoo
          yahoo_probe;
        point_of ~trace:"random" ~utilization:u ~seed ~samples Scenario.Benson
          benson_probe;
      ])
    utilizations

let run ?(seed = 42) ?(samples = 400) () =
  let points = compute ~seed ~samples in
  let table =
    Table.create
      ~title:
        "Fig.1: success probability of inserting a flow without migration \
         (fat-tree k=8)"
      ~columns:
        [
          "trace"; "util"; "p_small"; "p_mid"; "p_large"; "p_all"; "p_anypath";
        ]
  in
  List.iter
    (fun p ->
      Table.add_mixed table p.trace
        [
          p.utilization;
          p.p_desired_small;
          p.p_desired_mid;
          p.p_desired_large;
          p.p_desired_all;
          p.p_any_all;
        ])
    points;
  Table.print table
