(** Request-lifecycle tracker: per-request stage stamps.

    The serving layer stamps every request's path through the system —
    arrival, admission decision (admitted / shed / deferred), engine
    submission, per-round planning progress, abort/retry, completion or
    degradation — keyed by the request's event id. The tracker is a
    pure observer: stamping reads nothing the scheduler consults, so a
    run with a tracker attached makes bit-identical decisions.

    Entries land in two places:

    - a {!Store} record log ([path]), one JSON object per record
      ({!read_log} reads it back), written as each stamp happens — the
      artifact that [experiments telemetry] summarises;
    - when {!Trace} has a sink installed, a ["lifecycle"] instant event
      per stamp carrying the request id, stage name and a flow phase
      ([s]tart / s[t]ep / [f]inish), which {!Export.chrome_of_events}
      turns into Chrome-trace flow arrows threaded through the engine's
      span tree.

    The id → tenant attribution table retains only in-flight requests:
    a terminal stage ({!Shed}, {!Completed}, {!Degraded}) retires its
    entry, so memory stays bounded by in-flight work. *)

type stage =
  | Arrived  (** First seen by the controller. *)
  | Admitted  (** Accepted into the admission queue. *)
  | Shed of string  (** Rejected; reason ["capacity"]/["tenant-quota"]. *)
  | Deferred  (** Re-offered next tick (Block backpressure). *)
  | Submitted of { wait_ticks : int }
      (** Drained into the engine after [wait_ticks] queued ticks. *)
  | Planned of { round : int; co_scheduled : bool }
      (** Executed in service round [round]. *)
  | Aborted of { round : int }  (** Round [round] aborted by a fault. *)
  | Retry_scheduled of { ready_s : float }
      (** Re-queued; competes again at simulated instant [ready_s]. *)
  | Completed of { ect_s : float }
  | Degraded of { ect_s : float; failed_items : int }
      (** Terminal best-effort completion past the retry budget. *)

type entry = {
  id : int;  (** Request (event) id. *)
  tenant : string;  (** [""] when the stamp carried no attribution. *)
  tick : int;  (** Controller tick; [-1] outside a serving context. *)
  t_s : float;  (** Simulated instant. *)
  stage : stage;
}

type t

val create : ?path:string -> unit -> t
(** [path] streams every stamp to a record log (truncated on open;
    closed by {!close}). *)

val stamp : t -> id:int -> ?tenant:string -> tick:int -> t_s:float -> stage -> unit
(** Record one stage observation. A [tenant] argument (re)binds the
    id's attribution; later stamps without one inherit it. *)

val tenant_of : t -> int -> string option
(** Attribution of an in-flight request; [None] once terminal. *)

val stamped : t -> int
(** Total stamps recorded. *)

val in_flight : t -> int
(** Requests stamped but not yet terminal. *)

val close : t -> unit
(** Flush and close the record log (idempotent). *)

val read_log : string -> (entry Store.report, string) result
(** Read a lifecycle record log back; damage is skipped and reported
    (see {!Store.read_report}). *)
