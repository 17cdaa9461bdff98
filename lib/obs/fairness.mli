(** Rolling per-tenant fairness metrics.

    The paper's evaluation judges scheduling on efficiency {e and}
    fairness; this module watches the serving layer's fairness live.
    Per tenant it keeps a cumulative ECT histogram (via {!Histogram}),
    admission accounting (admitted / shed / drained), and a
    current-window ECT histogram that rotates every 50 ticks —
    the [last_window] field of {!to_json} is the most recently
    completed window (per-tenant completion count and mean ECT,
    tenant-sorted, tenants with no completions omitted, empty before
    the first rotation), so scrapers see a stable summary instead of a
    half-filled one.

    Fairness is summarised by Jain's index over per-tenant mean ECTs:
    [(Σx)² / (n·Σx²)], 1.0 when every tenant sees the same mean
    completion time, [1/n] when one tenant takes everything. Tenants
    with no completions yet are excluded; an all-zero vector counts as
    perfectly fair.

    Purely observational — nothing here feeds back into scheduling. *)

type t

val create : unit -> t
(** The window rotates every 50 ticks ([window] in [fairness.ml]); the
    ECT histograms keep {!Histogram}'s default resolution. *)

val windows_completed : t -> int

(** {2 Observations} *)

val observe_admit : t -> tenant:string -> unit
val observe_shed : t -> tenant:string -> unit
val observe_drain : t -> tenant:string -> unit

val observe_completion : t -> tenant:string -> ect_s:float -> degraded:bool -> unit
(** Record a completed request's ECT into the tenant's cumulative and
    current-window histograms. *)

val on_tick : t -> unit
(** Advance the window clock; every 50th call freezes the
    current window into the last completed window and restarts it. *)

(** {2 Readouts} *)

val jain : float list -> float option
(** Jain's index [(Sum x)^2 / (n * Sum x^2)]: 1 is perfect equality,
    [1/n] one value taking everything. [None] on the empty list; an
    all-zero list is perfectly fair ([Some 1.0]). *)

val jain_index : t -> float option
(** Jain's fairness index over cumulative per-tenant mean ECT. [None]
    until some tenant completes a request. *)

val window_jain_index : t -> float option
(** Jain's index over the last completed window's means. *)

type tenant_view = {
  v_tenant : string;
  v_admitted : int;
  v_shed : int;
  v_drained : int;
  v_completed : int;
  v_degraded : int;
  v_shed_ratio : float;  (** [shed / (admitted + shed)]; 0 when idle. *)
  v_mean_ect_s : float option;  (** [None] until a completion. *)
  v_p99_ect_s : float option;
}

val view : t -> tenant_view list
(** Cumulative per-tenant summary, tenant-sorted. *)

val ect_histogram : t -> string -> Histogram.t option
(** Copy of a tenant's cumulative ECT histogram. *)

val to_json : t -> Json.t
