type spec = { event_id : int; arrival_s : float; flows : Flow_record.t list }

type shape = Heterogeneous | Synchronous | Fixed of int | Range of int * int

let flows_per_event shape rng =
  match shape with
  | Heterogeneous -> Prng.int_in rng 10 100
  | Synchronous -> Prng.int_in rng 50 60
  | Fixed n ->
      if n <= 0 then invalid_arg "Event_gen.flows_per_event: Fixed";
      n
  | Range (lo, hi) ->
      if lo <= 0 || hi < lo then invalid_arg "Event_gen.flows_per_event: Range";
      Prng.int_in rng lo hi

type arrival_process = Batch | Poisson of float

let generate ?(shape = Heterogeneous) ?(arrivals = Batch) ?flow_params
    ?(first_flow_id = 0) rng ~host_count ~n_events =
  if host_count < 2 then invalid_arg "Event_gen.generate: host_count";
  if n_events < 0 then invalid_arg "Event_gen.generate: n_events";
  let next_flow_id = ref first_flow_id in
  let clock = ref 0.0 in
  List.init n_events (fun event_id ->
      (match arrivals with
      | Batch -> ()
      | Poisson mean ->
          if mean <= 0.0 then invalid_arg "Event_gen.generate: Poisson mean";
          if event_id > 0 then
            clock := !clock +. Dist.exponential rng ~rate:(1.0 /. mean));
      let arrival_s = !clock in
      let n_flows = flows_per_event shape rng in
      let flows =
        List.init n_flows (fun _ ->
            let id = !next_flow_id in
            incr next_flow_id;
            let src = Prng.int rng host_count in
            let dst =
              let d = Prng.int rng (host_count - 1) in
              if d >= src then d + 1 else d
            in
            Benson_trace.draw_flow ?params:flow_params rng ~id ~src ~dst
              ~arrival_s)
      in
      { event_id; arrival_s; flows })

