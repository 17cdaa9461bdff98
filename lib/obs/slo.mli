(** Rolling-window SLO tracker: tail-ECT quantiles and backlog gauges.

    ECT samples land in a pair of rotating histograms (current +
    previous window), so {!p99}/{!p999} always answer from between one
    and two windows of recent history — a bounded-memory approximation
    of a sliding window. Queue-depth and engine-backlog gauges hold
    the latest observed values.

    Purely observational: it raises no alerts ({!Watch} does) and
    gates nothing. *)

type t

val create : unit -> t
(** The window pair rotates every 50 ticks ([window] in [slo.ml]). *)

val observe_ect : t -> float -> unit
(** Record one completed request's ECT into the current window. *)

val observe_gauges : t -> queue:int -> backlog:int -> unit
(** Latest admission queue depth and engine backlog. *)

val on_tick : t -> unit
(** Advance the window clock, rotating every 50th call. *)

val p99 : t -> float option
(** Rolling-window ECT p99; [None] while the window pair is empty. *)

val p999 : t -> float option

val queue_depth : t -> int
val engine_backlog : t -> int
val to_json : t -> Json.t
