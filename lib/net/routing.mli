(** Path-selection policies over a candidate set P(f).

    The planner needs two decisions repeatedly: which path to try for a
    new flow, and which path to move a migrated flow to. Both are "pick
    from P(f) subject to feasibility" problems; the policy controls the
    tie-breaking and therefore load spread. First-fit is the paper's
    implicit default (desired path first); [Widest] exists for the
    ablation benches. The background fill spreads its load with
    {!select_random} instead. *)

type policy =
  | First_fit  (** First feasible candidate in ranked order. *)
  | Widest
      (** Feasible candidate with maximum bottleneck residual (the first
          such in rank order). *)

val policy_name : policy -> string

val all_policies : policy list

val select : Net_state.t -> Flow_record.t -> Path.t option
(** Build the record's first feasible path among its
    {!Net_state.candidates}, in rank order
    ({!Net_state.first_feasible}). [None] when no candidate is
    feasible. Besides the path, allocates only the candidate view, the
    demand and the option. *)

val select_random : Prng.t -> Net_state.t -> Flow_record.t -> Path.t option
(** A uniformly random feasible candidate: one {!Prng.int} over the
    count of feasible indices in rank order — the draw {!Prng.choose}
    makes over their array — drawn only when one exists. Random-fit
    placement mimics hash-based ECMP spreading. *)

val select_from :
  policy:policy ->
  eligible:(int -> bool) ->
  Net_state.t ->
  demand:float ->
  Net_state.candidates ->
  int
(** The [policy] choice over an existing candidate view, restricted to
    the indices [eligible] accepts (migration targets must avoid the
    path being cleared). Returns the chosen index, or [-1] when no
    eligible candidate is feasible. Both policies walk the candidates
    with {!Net_state.first_feasible}. Both are plain labels: an optional
    argument is boxed in [Some] on every call that supplies it. *)

val desired : Flow_record.t -> Net_state.candidates -> int
(** Index of the flow's *desired* candidate regardless of feasibility:
    {!ecmp_index} over the flow's 5-tuple stand-in (id, src, dst) — what
    a hash-based ECMP dataplane would assign, and the path the paper
    checks for congestion first. [-1] only when the candidate set is
    empty. *)

val ecmp_index : Flow_record.t -> n:int -> int
(** Deterministic hash of (id, src, dst) into [0, n). Requires [n >= 1]. *)
