(* Rolling-window SLO tracker: tail-ECT quantiles over a two-bucket
   rotating histogram pair (current + previous window, so a readout
   always covers between one and two windows of history) and the
   latest backlog gauges. *)

(* The rotation period in ticks. *)
let window = 50

type t = {
  mutable cur : Histogram.t;
  mutable prev : Histogram.t;
  mutable tick_in_window : int;
  mutable queue_depth : int;
  mutable backlog : int;
}

let create () =
  {
    cur = Histogram.create ();
    prev = Histogram.create ();
    tick_in_window = 0;
    queue_depth = 0;
    backlog = 0;
  }

let observe_ect t v = Histogram.record t.cur v

let observe_gauges t ~queue ~backlog =
  t.queue_depth <- queue;
  t.backlog <- backlog

let queue_depth t = t.queue_depth
let engine_backlog t = t.backlog
let rolling t = Histogram.merge t.prev t.cur

let quantile_opt t q =
  let h = rolling t in
  if Histogram.is_empty h then None else Some (Histogram.quantile h q)

let p99 t = quantile_opt t 0.99
let p999 t = quantile_opt t 0.999

let on_tick t =
  t.tick_in_window <- t.tick_in_window + 1;
  if t.tick_in_window >= window then begin
    t.prev <- t.cur;
    t.cur <- Histogram.create ();
    t.tick_in_window <- 0
  end

let opt_float = function None -> Json.Null | Some f -> Json.Float f

let to_json t =
  Json.Obj
    [
      ("window_ticks", Json.Int window);
      ("p99_ect_s", opt_float (p99 t));
      ("p999_ect_s", opt_float (p999 t));
      ("queue_depth", Json.Int t.queue_depth);
      ("engine_backlog", Json.Int t.backlog);
    ]
