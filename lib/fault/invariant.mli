(** Update-consistency invariant checking.

    After every engine step under fault, three things must hold or the
    chaos suite fails:

    + {b blackhole-freedom} — every placed flow's path crosses only
      enabled links (a fault handler that leaves a flow on failed
      capacity has blackholed it);
    + {b capacity non-violation} — no link's residual is negative (the
      §III-A congestion-free constraint survived the fault);
    + {b routing/placement agreement} — the per-edge occupancy sets,
      residuals and the flow table tell one consistent story
      ({!Nu_net.Net_state.sweep}).

    {!check} is the full, stateless sweep and the reference oracle: it
    costs O(Σ_e n_e² + flows + edges) for n_e flows on edge e (the
    per-pair membership scans dominate). {!check_changed} is its
    incremental form, for a caller that has just drained the flows
    changed since its last check
    ({!Nu_net.Net_state.drain_changed}); {!Injector.check_now} drives
    it. Its cost is O(changed flows × their hops × n_e + edges +
    on-edge entries), with nothing that grows with the placed-flow
    count beyond the on-edge entries it sums. On a consistent net
    either check allocates a few words, none per edge or per flow: the
    sweeps take top-level callbacks and write their expected residuals
    to scratch the net keeps. Violations are emitted as
    {!Nu_obs.Trace} instants so traced chaos runs show exactly when
    consistency broke. *)

type violation = { name : string; detail : string }
(** [name] is one of ["blackhole"], ["capacity"], ["consistency"]. *)

val check : Net_state.t -> violation list
(** All violations currently present (empty = consistent): one per
    (flow, disabled edge) pair, then one per negative residual, then at
    most one consistency violation. Bumps the [Invariant_checks]
    counter and emits one trace instant per violation. *)

val check_changed : Net_state.t -> flows:int array -> n:int -> violation list
(** {!check}'s verdict — the same violation names and counts — given
    that every placed flow outside the ids in [flows]' prefix [0, n)
    (as {!Nu_net.Net_state.drain_changed} writes them) passed a check
    since its last committed write. Walks only those flows' paths; the
    rest is
    flat array reads over the edges' sets and a running hop count.
    Does not bump [Invariant_checks], which counts full sweeps. *)
