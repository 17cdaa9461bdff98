(** Seeded chaos harness: a policy run under a generated fault schedule.

    Prepares the standard scenario, draws a deterministic fault schedule
    from [fault_seed] ({!Core.Fault_model.generate}), attaches an
    injector to {!Core.Engine.run} and reports what the recovery
    machinery did: aborts, retries, degradations, evacuations and — the
    pass/fail signal — invariant violations. Two runs with equal
    parameters produce bit-identical recovery digests; CI's chaos-smoke
    job runs this and fails on any violation. *)

type params = {
  seed : int;  (** Scenario/workload seed. *)
  fault_seed : int;  (** Fault-schedule seed. *)
  fault_rate : float;  (** Primary faults per simulated second. *)
  retry_max : int;  (** Abort attempts before degradation. *)
  utilization : float;
  n_events : int;
  alpha : int;  (** P-LMTF sample size. *)
}

type result = {
  params : params;
  schedule_length : int;
  run : Core.Engine.run_result;
  recovery : Core.Recovery.t;
  violations : int;
  digest : string;  (** {!Core.Recovery.digest} of the recovery log. *)
}

val run : ?params:params -> unit -> result
(** One chaos run of P-LMTF with [params.alpha]. Default
    [params]: seed 42, fault_seed 7, rate 0.2/s, 3 retries, 70%
    utilisation, 30 events, alpha 4. *)

val result_to_json : result -> Core.Obs.Json.t
(** The recovery-digest artifact: parameters, schedule length, recovery
    stats + digest, and the run's headline metrics. *)

val print : result -> unit
(** Human summary on stdout. *)
