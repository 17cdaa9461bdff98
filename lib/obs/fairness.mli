(** Per-tenant fairness accounting.

    The paper's evaluation judges scheduling on efficiency {e and}
    fairness; this module is the one definition of per-tenant
    accounting. It folds {!Lifecycle} stages ({!observe}): per tenant
    it keeps admission counts (admitted / shed / drained) and a
    cumulative ECT histogram (via {!Histogram}). Serving telemetry
    feeds it the same stamps it writes to the lifecycle log, so folding
    that log ([experiments telemetry]) rebuilds the live state. The one
    windowed fairness readout is {!Watch}'s Jain-collapse detector.

    Fairness is summarised by Jain's index over per-tenant mean ECTs:
    [(Σx)² / (n·Σx²)], 1.0 when every tenant sees the same mean
    completion time, [1/n] when one tenant takes everything. Tenants
    with no completions yet are excluded; an all-zero vector counts as
    perfectly fair.

    Purely observational — nothing here feeds back into scheduling. *)

type t

val create : unit -> t
(** The ECT histograms keep {!Histogram}'s default resolution. *)

val observe : t -> tenant:string -> Lifecycle.stage -> unit
(** Account one lifecycle stage to [tenant]. [Admitted], [Shed],
    [Submitted] (drained), [Completed] and [Degraded] count; a
    degraded completion counts as completed too, and both record their
    ECT. Every other stage is ignored and creates no tenant. *)

val attribution : string -> string
(** The tenant a stamp is accounted to: its own, or ["unknown"] for a
    stamp logged without one ([""]). *)

val of_log : Lifecycle.entry list -> t
(** A fresh tracker fed every entry, in order, under its
    {!attribution}: the offline twin of serving telemetry's live
    fold. *)

(** {2 Readouts} *)

val jain : float list -> float option
(** Jain's index [(Sum x)^2 / (n * Sum x^2)]: 1 is perfect equality,
    [1/n] one value taking everything. [None] on the empty list; an
    all-zero list is perfectly fair ([Some 1.0]). *)

val jain_index : t -> float option
(** Jain's fairness index over cumulative per-tenant mean ECT. [None]
    until some tenant completes a request. *)

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
(** [jain_index] and a tenant-sorted [tenants] object: each tenant's
    counts, shed ratio, mean and p99 ECT, and its ECT histogram. *)
