(** Descriptive statistics over float samples.

    The evaluation reports average and tail (p95/p99/max) event completion
    times, queuing delays and cost totals. All functions are total over
    non-empty inputs and raise [Invalid_argument] on empty inputs, keeping
    "no data" failures loud rather than silently producing NaN. *)

val mean : float array -> float
(** Arithmetic mean, over a Kahan-compensated sum. *)

val max_value : float array -> float

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [0, 100]: linear interpolation between
    closest ranks (the common "type 7" estimator). [percentile xs 100.0]
    equals [max_value xs]. The input is not modified. *)

val reduction_vs : baseline:float -> float -> float
(** [reduction_vs ~baseline v] is the fractional reduction
    [(baseline - v) / baseline] — the paper's "X% reduction against FIFO"
    metric. Requires [baseline > 0]. *)
