(** Mutable network state: flow placements and residual link bandwidth.

    This is the object every paper concept is defined against: the
    congestion-free invariants of §III-A (each placed flow is unsplit,
    consumes its demand d^f on every edge of its single path p, and every
    link keeps c_ij >= 0), the congested-link set E^c of Definition 1,
    and the what-if copies the planner's cost estimation runs on.

    All mutating operations either succeed atomically or leave the state
    unchanged and report why — no partial placements. *)

type t

type placed = { record : Flow_record.t; path : Path.t }
(** A flow pinned to its path. The demand on every edge of [path] is
    [Flow_record.demand_mbps record]. *)

val create : Topology.t -> t
(** Empty network over a topology: all residuals at link capacity. *)

val copy : t -> t
(** Deep copy; the copy can be mutated freely (what-if planning).
    Raises [Invalid_argument] while a transaction is open. Speculative
    planning should prefer {!begin_txn}/{!rollback}, which undo in
    O(touched edges) instead of cloning every per-edge table. *)

val snapshot : t -> t
(** Probe snapshot for a worker domain. Like {!copy} but: allowed while
    a transaction is open (the snapshot captures the speculative values
    a sequential probe would read, with a clean journal of its own);
    shares the interior-path memo read-only (call {!warm_all_paths}
    on the parent first); and bumps no counters, so [Counters.diff]
    totals stay independent of the domain count. *)

val warm_all_paths : t -> unit
(** Fill the interior-path memo (see {!candidates}) for every ordered
    pair of attachment switches, without counting the enumerations as
    planning work: about 1,000 pairs and 14.7 k interiors at k=8. Must
    run on the main domain before {!snapshot}s of this state are probed
    in parallel — after it, snapshot reads of the shared memo race with
    no writer. *)

val topology : t -> Topology.t
val graph : t -> Graph.t

(** {2 Checkpoint freeze/thaw}

    Durable-state support for the online controller ({!Nu_serve}): a
    [frozen] value is a plain, serialisable record of everything that
    can influence a future decision. Floats (residuals, the Kahan
    utilisation pair) are captured verbatim — recomputing them from the
    placements would be order-sensitive in the low bits and break the
    bit-identical-restore guarantee. *)

type frozen = {
  fz_flows : placed list;  (** Sorted by flow id. *)
  fz_residual : float array;
  fz_degraded : float array;
  fz_disabled : bool array;
  fz_versions : int array;
  fz_disabled_epoch : int;
  fz_util_sum : float;  (** Running fabric-utilisation sum (bit-exact). *)
  fz_util_comp : float;  (** Its Kahan compensation term. *)
}

val freeze : t -> frozen
(** Snapshot the state. Raises [Invalid_argument] while a transaction is
    open (checkpoints are taken at round boundaries only). *)

val thaw : Topology.t -> frozen -> t
(** Rebuild a state over the same topology. The result behaves
    bit-identically to the frozen original under every future operation
    sequence ([invariants_ok] holds; probe/cache bookkeeping restarts
    empty and no log cursor is open). Each edge's flow rows are sized
    from a count of the hops that cross it, like {!copy}'s. Raises
    [Invalid_argument] when the frozen arrays do not match the
    topology's edge count or a flow id repeats. *)

(** {2 Transactions}

    A lightweight undo journal for speculative planning: every mutation
    made while a transaction is open is recorded and can be undone with
    {!rollback} in O(operations performed) — no state copy, no
    re-planning of reroutes. Transactions nest; an inner [commit] merges
    its operations into the enclosing transaction, and only the
    outermost [commit] makes them permanent (bumping {!edge_version}
    stamps). *)

val begin_txn : t -> unit
(** Open a (possibly nested) transaction. *)

val rollback : t -> unit
(** Undo every mutation since the matching {!begin_txn}, restoring the
    flow table, per-edge occupancy and administrative link state. A
    residual, degradation ledger or the fabric-utilisation sum is
    restored by subtracting the delta it gained, which may leave it off
    in its low bits, and a removed per-edge entry returns at the end of
    its edge's row. Raises [Invalid_argument] with no open
    transaction. *)

val commit : t -> unit
(** Keep the mutations made since the matching {!begin_txn}. The
    outermost commit stamps every written edge (see {!edge_version}).
    Raises [Invalid_argument] with no open transaction. *)

val in_txn : t -> bool

(** {2 Committed log and reader cursors}

    One append-only log of the mutations that {e survive}: writes
    outside any transaction as they happen, and a transaction's writes
    at its outermost {!commit} (a rolled-back span never appears). It
    records only while some reader holds a {!cursor}; each reader
    consumes it from its own cursor, so every reader sees one order of
    committed mutations, and the prefix every cursor has passed is
    truncated. The probe pool replays drained batches into its worker
    mirrors ({!drain_batch}, {!apply_batch}); an incremental invariant
    check revisits the flows they name ({!drain_changed}). With no
    cursor open a write pays one list test. *)

type cursor
(** One reader's position in the log. *)

val open_cursor : t -> bounded:bool -> cursor
(** A cursor at the log's current end: its reader sees every mutation
    committed from now on. A [bounded] cursor is dropped once it lags
    more flow changes behind than the state has flows plus 1024 (checked
    when the log fills), so an idle reader cannot grow the log without
    bound; an unbounded one holds the log until it drains. *)

val close_cursor : t -> cursor -> unit
(** Release the cursor; with none left the log stops recording.
    Closing a cursor that is not open is a no-op. *)

type batch
(** One drained span of committed mutations, in execution order.
    Immutable; safe to share across domains (flow bindings are carried
    by pointer, and placements are immutable). *)

val drain_batch : t -> cursor -> batch
(** The mutations committed since the cursor opened or last drained;
    advances the cursor to the log's end. May be called with
    transactions open: ops journaled by a still-open transaction are
    not part of the drain — they join the log if and when that
    transaction commits. Raises [Invalid_argument] if the cursor is not
    open on this state. *)

val apply_batch : t -> batch -> unit
(** Replay a drained batch against a quiescent mirror (no open
    transaction, no active probe, no cursor of its own — raises
    [Invalid_argument] otherwise). Applying every batch, in drain
    order, to a mirror that was bit-identical when the cursor opened
    keeps it bit-identical to the source at each drain point while
    neither the source nor the mirror rolls back a transaction. A
    rollback is not exact ({!rollback}): after one the mirror matches
    the source only up to low bits of residuals, ledgers and the
    utilisation sum, and the order of per-edge rows. *)

val drain_changed : t -> cursor -> into:int array ref -> int
(** Write the distinct flow ids whose binding changed through a
    committed write since the cursor opened or last drained to the
    prefix of [!into], ascending, and return how many there are;
    advances the cursor like {!drain_batch}. [into] is replaced by a
    larger array when it is too short, so a caller that keeps it
    allocates only while it grows. [-1] when the cursor cannot vouch for
    completeness: it was dropped for lagging, closed, or belongs to
    another state. The caller must then re-sync with a full sweep and a
    new cursor. O(ops logged since the last drain + n log n for the n
    ids drawn). *)

(** {2 Edge versions and probe read sets}

    Support for reusing a probe's plan: [edge_version] is a per-edge
    stamp bumped every time a *committed* write lands on the edge
    (residual change or administrative flag flip; rolled-back
    speculative writes do not count). A probe bracketed by
    [start_probe]/[stop_probe] records every edge id whose state it read
    or wrote, so its plan is exactly replayable while all recorded
    edges still carry their recorded versions — the engine's stale-plan
    check within a wave. *)

val edge_version : t -> int -> int

val disabled_epoch : t -> int
(** Bumped on every {!disable_edge}/{!enable_edge} that changes a flag
    (including speculative ones later rolled back). Probes do not record
    per-edge disabled-flag reads; a probe plan is instead replayable
    only while the epoch it was taken under is unchanged — coarse, but
    administrative events are rare and the per-read bookkeeping is
    not. *)

val start_probe : t -> unit
(** Begin recording the edge read/write set. Probes do not nest; raises
    [Invalid_argument] if one is already active. *)

val stop_probe : t -> int array
(** Stop recording and return the touched edge ids as a fresh array,
    sorted ascending. Raises [Invalid_argument] without an active
    probe. *)

(** {2 Capacity accounting} *)

val residual : t -> int -> float
(** Residual bandwidth c_ij of an edge id, Mbps. *)

val used : t -> int -> float
(** [capacity - residual] of an edge id. *)

val mean_utilization : t -> float
(** Mean of [used / capacity] over every edge (zero-capacity edges
    count 0). *)

(** {2 Link administrative state} *)

val disable_edge : t -> int -> unit
(** Mark an edge id failed/unusable: candidates crossing it disappear
    from {!candidates}, it fails {!candidate_feasible}, and rejects {!place} /
    {!reroute}. Flows already crossing it stay placed (their traffic is
    being lost until an update reroutes them) — build a
    link-failure update event to evacuate them. Idempotent. *)

val enable_edge : t -> int -> unit
(** Undo {!disable_edge}. Idempotent. *)

val edge_disabled : t -> int -> bool

val degrade_edge : t -> int -> lost_mbps:float -> unit
(** Exogenously remove [lost_mbps] of an edge's capacity (the fault
    model's partial-degradation events). Cumulative; journal-aware, so a
    mid-transaction degrade rolls back exactly. The residual may go
    negative when placed flows already exceed the surviving capacity —
    callers (the fault injector) must evacuate flows until
    {!residual} is non-negative to restore the capacity invariant.
    Raises [Invalid_argument] on a negative loss. *)

val restore_edge_capacity : t -> int -> unit
(** Undo every accumulated {!degrade_edge} on the edge id. Idempotent. *)

val fabric_edges : t -> int list
(** Edge ids whose two endpoints are both switches — the aggregation
    fabric. The paper's "network utilization" is measured here: host
    access links are capacity-bound by a single server and are kept out
    of the utilisation probe (see DESIGN.md §3). Computed once per state
    family and cached. *)

val mean_fabric_utilization : t -> float
(** Mean utilisation over {!fabric_edges}, maintained incrementally by
    {!place}/{!remove}/{!reroute} (Kahan-compensated running sum), so
    the per-round churn refill loop pays O(1) per probe instead of
    O(edges). Agrees with the mean of [used / capacity] over
    {!fabric_edges} to floating-point accumulation accuracy (checked by
    {!invariants_ok}). *)

(** {2 Flow queries} *)

val flow : t -> int -> placed option
(** Placed flow by flow id. *)

val flow_count : t -> int
val is_placed : t -> int -> bool

val iter_flows : t -> (placed -> unit) -> unit
(** Iteration order is unspecified; use {!flows_on_edge} for
    deterministic per-link lists. *)

val flows_on_edge : t -> int -> placed list
(** Flows whose path crosses the edge id, sorted by flow id. *)

val edge_flow_count : t -> int -> int
(** Number of flows currently crossing the edge id. Does not record the
    edge in an open probe's read set (pair with {!edge_flows_blit},
    which does). *)

val edge_flows_blit :
  t -> int -> ids:int array -> dem:float array -> size:float array -> int
(** Copy the edge's flow ids with their demands (Mbps) and sizes (Mbit)
    into caller-owned scratch arrays, returning the entry count. Entry
    order is unspecified — callers must sort or break ties by flow id
    for determinism. Records the edge in an open probe's read set,
    exactly like {!flows_on_edge}. Raises [Invalid_argument] if any
    scratch array is shorter than {!edge_flow_count}. *)

val edge_flow_ids : t -> int list -> into:int array ref -> int
(** Write the distinct ids of the flows crossing any of the edge ids to
    the prefix of [!into], ascending, and return how many there are.
    [into] grows as {!drain_changed}'s does. Records each edge in an
    open probe's read set, exactly like {!flows_on_edge}. O(n log n) for
    the n entries on the edges. *)

val peek_flow : t -> int -> placed
(** Current placement of a flow id without recording anything in an open
    probe's read set ({!flows_on_edge}'s resolution step, exposed for
    callers that already hold the edge read via {!edge_flows_blit}).
    Raises [Not_found] when the id is not placed; no option is
    allocated. *)

val flows_through_node : t -> int -> placed list
(** Flows whose path visits the node (as switch or endpoint), sorted by
    flow id. Used to build switch-upgrade update events. *)

(** {2 Candidate paths}

    The ranked candidate set P(f) of a flow is its source's access hop
    [up], one interior path of the two attachment switches, and the
    destination's access hop [down]. The interior sets are memoised per
    ordered switch pair as flat edge-id arrays, shared by every
    {!copy} and {!snapshot} of a state: at k=8 that is ≈14.7 k
    interiors where host-pair paths would be 235,904. A candidate is
    addressed by its index; a full {!Path.t} is built only for the one
    that is placed, rerouted to or cleared ({!candidate_path}). *)

type candidates = private {
  up : int;  (** Edge id from the source host to its switch. *)
  down : int;  (** Edge id from the destination's switch to it. *)
  interior : int array array;
      (** Interior edge ids of each candidate, in rank order. *)
}

val no_candidates : candidates
(** The empty view ([up] and [down] are [-1]). *)

val candidates : t -> Flow_record.t -> candidates
(** The record's candidates, minus any crossing a disabled edge (none
    at all when an access hop is disabled, or when source and
    destination are one host). Counts one
    [Counters.Path_enumerations]. *)

val candidate_count : candidates -> int

val fold_hops : candidates -> int -> init:'a -> f:('a -> int -> 'a) -> 'a
(** Fold [f] over the edge ids of candidate [i] in traversal order:
    [up], the interior, [down]. *)

val candidate_path : t -> candidates -> int -> Path.t
(** The full path of candidate [i] (freshly built). *)

val candidate_is : candidates -> int -> Path.t -> bool
(** Candidate [i] has exactly the path's edge ids. *)

val candidate_feasible : t -> candidates -> int -> demand:float -> bool
(** True when every edge of candidate [i] is enabled and has
    residual >= demand. Stops at the first edge that fails: edges past
    it are not recorded in an open probe's read set. *)

val first_feasible :
  t -> candidates -> demand:float -> eligible:(int -> bool) -> from:int -> int
(** [first_feasible t c ~demand ~eligible ~from] is the first candidate
    at index [from] or later, in rank order, that is [eligible] and
    {!candidate_feasible}; [-1] when there is none. This is the one
    first-fit scan: each access hop is checked at most once per call,
    yet the edges recorded in an open probe's read set are exactly
    those of checking each eligible candidate's full path in turn,
    stopping at the one returned. [eligible] must be pure. Allocates
    nothing. *)

(** {2 Feasibility and congestion} *)

val congested_links : t -> Path.t -> demand:float -> Graph.edge list
(** E^c: edges of the path whose residual is strictly below [demand], in
    path order (Definition 1). *)

val capacity_gap : t -> Graph.edge -> demand:float -> float
(** [demand - residual] of an edge — how much bandwidth migrations must
    free on it. Non-positive means the edge already fits the demand. *)

val candidate_gap :
  t -> candidates -> int -> demand:float -> into:float array -> unit
(** Store in [into.(i)] the sum, over candidate [i]'s hops in traversal
    order, of [max 0.0 (demand - residual)]: how much bandwidth a
    clearing of it would have to free. Records every hop in an open
    probe's read set. Writing into the caller's array keeps the sum
    unboxed. *)

(** {2 Mutations} *)

type place_error =
  | Duplicate_flow  (** A flow with this id is already placed. *)
  | Congested of Graph.edge list
      (** The path lacks capacity on these edges. *)

val place : t -> Flow_record.t -> Path.t -> (unit, place_error) result
(** Atomically place the flow on the path (checks the endpoints match the
    path and capacity suffices everywhere). On success it allocates only
    what the state keeps: the binding and its flow-table entry (plus a
    committed-log slot while a cursor is open). *)

val remove : t -> int -> (placed, [ `Not_found ]) result
(** Remove a flow by id, restoring its bandwidth. Allocates only the
    [Ok] it returns. *)

val reroute :
  ?admit_disabled:bool -> t -> int -> Path.t -> (Path.t, place_error) result
(** [reroute t id new_path] migrates flow [id]: feasibility of
    [new_path] is judged with the flow's current usage already released
    (so partially-overlapping moves work). Returns the old path. Raises
    [Invalid_argument] when [id] is not placed. On error the placement is
    unchanged. [admit_disabled] (default false) skips the disabled-edge
    check — exclusively for rollback paths that must restore a placement
    that legitimately predates a link failure; capacity is still
    checked. Every hop is recorded in an open probe's read set, also
    after one fails; the error lists are built only on failure. *)

val candidate_reroutable : t -> placed -> candidates -> int -> bool
(** Whether {!reroute} of the placed flow onto candidate [i] (without
    [admit_disabled]) would succeed, recording the same edges in an open
    probe's read set — without building the candidate's path or an
    error. [placed] must be the flow's current placement. *)

(** {2 Structural invariants}

    Both sweeps prove the §III-A congestion-free constraints and the
    agreement of the flow table, the per-edge occupancy sets and the
    residuals. Every placed flow must be found on every hop of its path
    with its demand cached there; the sets must then hold exactly as
    many entries as the paths have hops, which (paths being loop-free)
    rules out ghost, stray and duplicate entries without visiting them.
    Residuals are recomputed per edge, and the fabric-utilisation sum
    and transaction depth are checked, as is that the committed log
    holds nothing every open cursor has passed (nothing at all when no
    cursor is open). The first error found is
    returned. The callbacks get the [acc] the sweep was given, so a
    caller's need not be closures: [blackhole acc ~flow ~edge] once per
    (flow, disabled edge) pair of a placed flow, then [overdrawn acc
    ~edge ~residual] once per edge whose residual is below -1e-6 (the
    §III-A capacity constraint broken), in edge order. Let P be the
    number of (flow, edge) pairs and n_e the flows on edge e: each
    membership test scans one edge's set, so finding the pairs costs
    O(Σ_e n_e²). On a clean state neither sweep allocates more than a
    few words per call: the expected residuals go to scratch the state
    keeps. *)

val sweep :
  t ->
  blackhole:('a -> flow:int -> edge:int -> unit) ->
  overdrawn:('a -> edge:int -> residual:float -> unit) ->
  'a ->
  (unit, string) result
(** The full sweep: every placed flow's path is walked, residuals are
    recomputed from the flows' demands, and the hops are summed afresh
    and compared with the running count the state keeps.
    O(Σ_e n_e² + flows + edges); stateless — the reference oracle for
    {!sweep_changed}. *)

val sweep_changed :
  t ->
  flows:int array ->
  n:int ->
  blackhole:('a -> flow:int -> edge:int -> unit) ->
  overdrawn:('a -> edge:int -> residual:float -> unit) ->
  'a ->
  (unit, string) result
(** The incremental sweep: only the flow ids in [flows]' prefix
    [0, n) are walked (ids no longer placed are skipped); residuals are
    recomputed from the demands cached on each edge, blackholes are read
    off the disabled edges' sets, and the entries are counted against
    the running hop count the state keeps through every put, delete,
    rollback, replay, copy and thaw. When every placed flow outside
    those listed passed a sweep since its last committed write — which
    is what {!drain_changed} vouches for — its verdict and callback
    counts equal {!sweep}'s. O(Σ over the listed flows of hops × n_e +
    P as flat array reads + edges): nothing in it grows with the flow
    count except the on-edge entries, and there is no hashtable lookup
    per pair. *)

val invariants_ok : t -> (unit, string) result
(** {!sweep} without the blackhole and overdrawn-edge reports. For
    tests and debugging. *)

val pp : Format.formatter -> t -> unit
(** One-line occupancy summary. *)
