(** Background-traffic fill (paper §V-A).

    "We inject a large amount of traffic into the Fat-Tree datacenter as
    background traffic, so that the network utilization grows up to
    70%." The fill places generator-supplied flows on random feasible
    candidates ({!Routing.select_random}, which mimics hash-based ECMP
    spreading) until the utilisation probe reaches the target. Because
    packing stalls when only large flows remain, {!fill} retries with
    geometrically shrunk flow demands (the [scale] argument to
    [make_flow]) — mirroring how a real trace's mice can still be
    admitted once elephants no longer fit. *)

type report = {
  placed : int;  (** Flows successfully placed. *)
  rejected : int;  (** Placement attempts that found no feasible path. *)
  achieved_utilization : float;  (** Probe value at the end of the fill. *)
  placed_ids : int list;  (** Ids of the placed flows, placement order. *)
}

val fill :
  ?utilization:(Net_state.t -> float) ->
  ?accept:(Net_state.t -> Flow_record.t -> Path.t -> bool) ->
  rng:Prng.t ->
  Net_state.t ->
  target:float ->
  make_flow:(id:int -> scale:float -> Flow_record.t) ->
  first_id:int ->
  report
(** [fill ~rng net ~target ~make_flow ~first_id] places flows
    [make_flow ~id ~scale] for ids from [first_id] upward, each on a
    candidate drawn from [rng] after the flow is made, until
    [utilization net >= target] (default probe: {!Net_state.mean_utilization}
    over every edge). After [max_consecutive_failures] (50) rejected
    attempts in a row, [scale] halves; the fill gives up when
    [scale < min_scale] (1/64); both are constants in [background.ml].
    [target] must be in [0, 1).
    [accept] (default: always) vetoes individual placements — e.g. to keep
    host access links below a cap so that update-event flows contend on
    the fabric, not on unfixable access links. *)

val yahoo_flow_maker :
  Prng.t ->
  host_count:int ->
  id:int ->
  scale:float ->
  Flow_record.t
(** Convenience [make_flow] drawing Yahoo!-style flows with demand scaled
    by [scale] (duration preserved, size scaled accordingly). *)

val benson_flow_maker :
  Prng.t ->
  host_count:int ->
  id:int ->
  scale:float ->
  Flow_record.t
(** Same, with Benson-style ("random trace") flows. *)
