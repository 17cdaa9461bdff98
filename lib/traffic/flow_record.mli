(** Trace-level description of one flow.

    This mirrors what the Yahoo! dataset records per flow — endpoints,
    size, duration, arrival — after {!Ip_map} has hashed the anonymised
    IPs onto datacenter hosts. Endpoints here are *host indices* in
    [0, host_count); they become graph node ids only when a topology
    binds them ({!Nu_net}). *)

type t = {
  id : int;  (** Unique within one generated trace. *)
  src : int;  (** Source host index. *)
  dst : int;  (** Destination host index; always <> [src]. *)
  size_mbit : float;  (** Total volume, Mbit. *)
  duration_s : float;  (** Active lifetime, seconds. *)
  arrival_s : float;  (** Arrival instant, seconds from trace start. *)
}

val demand_mbps : t -> float
(** Bandwidth requirement d^f = size / duration (Mbit/s). *)

val v :
  id:int ->
  src:int ->
  dst:int ->
  size_mbit:float ->
  duration_s:float ->
  arrival_s:float ->
  t
(** Checked constructor: finite positive size and duration, finite
    non-negative arrival, distinct non-negative endpoints. *)
