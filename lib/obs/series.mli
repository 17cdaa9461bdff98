(** Bounded per-round gauge time-series.

    A series is a fixed set of named float gauges sampled at increasing
    simulated-time instants — the engine samples fabric utilization,
    queue length and retry backlog once per service round, producing
    the utilization-trajectory data of the paper's Figs. 4-9 without a
    trace export.

    Memory is bounded: the series retains at most 4096 rows.
    When the cap is reached it decimates — every other retained row is
    dropped and the sampling stride doubles, so arbitrarily long runs
    keep a uniformly-spaced summary at fixed memory. {!to_json}'s
    [stride] reports the current cadence (1 until the first
    decimation), its [total_samples] every row offered, including ones
    dropped by striding. *)

type t

val create : columns:string list -> unit -> t
(** At most 4096 rows are retained. [columns] names the gauges; every sampled row must supply one value per
    column. Raises [Invalid_argument] on an empty column list. *)

val sample : t -> t_s:float -> float array -> unit
(** Offer one row at instant [t_s]. The row is copied. Rows that fall
    between stride points are dropped in O(1). Raises
    [Invalid_argument] when the row length does not match the column
    count. *)

val to_json : t -> Json.t
(** [{"columns": [...], "stride": k, "total_samples": n,
    "t_s": [...], "data": {"col": [...], ...}}] — column-major. *)

val to_csv : t -> string
(** RFC-4180-style CSV: a [t_s,col1,col2,...] header then one line per
    retained row. Floats are rendered shortest-round-trip. *)
