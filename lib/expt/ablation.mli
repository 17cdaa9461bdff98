(** Ablations for the design choices DESIGN.md §7 calls out.

    Not in the paper's figures, but each isolates a knob the paper fixes
    implicitly: the sample size α (the paper asserts α = 2 already works,
    citing the power of two choices), the greedy order inside the
    migration-set approximation, the admission mode (desired-path-first
    vs scan-first), and the path-selection policy. *)

val run_all : unit -> unit
(** Print every ablation in turn: LMTF and P-LMTF reductions vs FIFO as
    α sweeps 1, 2, 4, 8; Cost(U), moves and plan units under each
    {!Migration.order}; desired-first vs scan-first admission; the four
    relocation-target routing policies; the full-reordering baseline's
    plan-time blow-up (§III-C); and P-LMTF's opportunistic-fit
    acceptance as static utilisation grows (EXPERIMENTS.md note 6). *)
