(** Aligned text tables for experiment output.

    Every figure regenerator prints its series through this module so the
    harness output is uniform and machine-parsable (a header line starting
    with '#', then whitespace-aligned columns). *)

type t

val create : title:string -> columns:string list -> t
(** Start a table. [columns] are header labels. *)

val add_floats : t -> float list -> unit
(** Row of "%.4g"-formatted numbers; must match the column count. *)

val add_mixed : t -> string -> float list -> unit
(** Row with a leading label cell then numbers; must match the column
    count. *)

val print : t -> unit
(** Render to stdout with aligned columns. *)

val to_string : t -> string
