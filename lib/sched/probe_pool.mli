(** Persistent pool of probe-worker domains with log-synchronised
    mirrors of the shared network state.

    A pool spawned with [create ~domains ~net] keeps [domains - 1]
    worker domains alive for its whole lifetime. Each worker owns a
    {!Net_state.snapshot} mirror of [net], taken once at creation; from
    then on the pool holds a cursor on [net]'s committed log
    ({!Net_state.open_cursor}, never dropped for lagging) and every
    {!map} call ships the batch drained through it
    ({!Net_state.drain_batch}) to the workers, which replay it into
    their mirrors ({!Net_state.apply_batch}) — a few hundred ops per
    round instead of a multi-megabyte state copy per lane per batch.
    Other readers of the log, such as an injector's invariant checker,
    hold cursors of their own and are not disturbed.

    [map pool ~f items] evaluates [f lane item] for every item and
    returns the results in item order. Lanes claim items off a shared
    atomic cursor: the calling domain probes [net] itself (exactly what
    the sequential path does), workers probe their mirrors. A mirror is
    bit-identical to [net] at the batch boundary only until the first
    probe on either side rolls back: {!Net_state.rollback} may leave
    residuals and the utilisation sum off in their low bits and moves a
    restored per-edge entry to its row's end, and which lane probes
    which item is decided by the race for the cursor. From the first
    wave on, mirrors match [net] up to those differences, which no
    decision digest has been seen to reflect (the domains-1 = domains-2
    tests and the perfbench digests check it); that any lane computes
    the same result for a given item rests on that observation.

    Requirements on [f]: it must leave the lane state exactly as it
    found it (the planner's probe — plan inside a transaction, then
    rollback — does), must not touch the shared trace/histogram sinks
    (workers are marked observability-silent and the caller's lane runs
    scoped silent, so the standard gates already refuse), and must not
    consume the run's PRNG stream. Counters incremented inside [f] land
    in each worker's domain-local store and are merged into the
    caller's after the batch, in worker-index order — deterministic
    totals, independent of how the cursor distributed the items.

    [create] fills [net]'s interior-path memo for every switch pair
    ({!Net_state.warm_all_paths}) before taking the mirrors: they share
    the memo read-only, so no lane — the owner's included — ever writes
    it while a worker reads it.

    Between batches the workers spin-wait (with [Domain.cpu_relax]) —
    they respond to minor-GC stop-the-world requests immediately, where
    a domain parked on a condition variable would drag every other
    domain's allocation into its slow wake-up handshake. Call
    {!shutdown} when planning is done to stop burning those cores and
    to close the pool's cursor. *)

type t

val create : domains:int -> net:Net_state.t -> t
(** Spawn the worker domains and take their mirrors. [net] must be
    quiescent (the caller must not mutate it until [create] returns —
    it blocks until every mirror is built). With [domains <= 1] no
    workers are spawned and no cursor opens; {!map} then runs
    entirely on the calling domain. *)

val map : t -> f:(Net_state.t -> 'a -> 'b) -> 'a array -> 'b array
(** Evaluate the batch across the lanes; results in item order. Must
    only be called from the domain that ran {!create}, and not after
    {!shutdown}. *)

val shutdown : t -> unit
(** Stop the workers, join them, and close the pool's cursor.
    Idempotent. After shutdown the pool must not be used. *)
