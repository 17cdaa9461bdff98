(** Path-selection policies over a candidate set P(f).

    The planner needs two decisions repeatedly: which path to try for a
    new flow, and which path to move a migrated flow to. Both are "pick
    from P(f) subject to feasibility" problems; the policy controls the
    tie-breaking and therefore load spread. First-fit is the paper's
    implicit default (desired path first); the alternatives exist for the
    ablation benches. *)

type policy =
  | First_fit  (** First feasible candidate in ranked order. *)
  | Widest
      (** Feasible candidate with maximum bottleneck residual (the first
          such in rank order). *)
  | Least_loaded
      (** Feasible candidate with minimum peak utilisation (the first
          such in rank order). *)
  | Random_fit  (** Uniformly random feasible candidate (needs [rng]). *)

val policy_name : policy -> string

val all_policies : policy list

val select :
  ?rng:Prng.t ->
  ?policy:policy ->
  Net_state.t ->
  Flow_record.t ->
  Path.t option
(** Choose a feasible path for the record among its
    {!Net_state.candidates}, and build it. [None] when no candidate is
    feasible. Default policy [First_fit]. [Random_fit] raises
    [Invalid_argument] without an [rng]. *)

val select_from :
  ?policy:policy ->
  ?eligible:(int -> bool) ->
  Net_state.t ->
  demand:float ->
  Net_state.candidates ->
  int
(** Same choice rule over an existing candidate view, restricted to the
    indices [eligible] accepts (default all; migration targets must
    avoid the path being cleared). Returns the chosen index, or [-1]
    when no eligible candidate is feasible. It takes no [rng]: the
    planner draws no randomness, so [Random_fit] raises
    [Invalid_argument] here once a candidate is feasible. *)

val desired : Flow_record.t -> Net_state.candidates -> int
(** Index of the flow's *desired* candidate regardless of feasibility:
    {!ecmp_index} over the flow's 5-tuple stand-in (id, src, dst) — what
    a hash-based ECMP dataplane would assign, and the path the paper
    checks for congestion first. [-1] only when the candidate set is
    empty. *)

val ecmp_index : Flow_record.t -> n:int -> int
(** Deterministic hash of (id, src, dst) into [0, n). Requires [n >= 1]. *)
