(** Minimal binary min-heap keyed by float priority.

    Used by {!Dijkstra} and {!Yen}, and by the discrete-event engine in
    {!Nu_sched} (event timestamps). Ties are broken by insertion order so
    that iteration over equal-priority items is deterministic — a
    requirement for reproducible simulations. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> float -> 'a -> unit
(** [push q prio v] inserts [v] with priority [prio]. *)

val pop : 'a t -> (float * 'a) option
(** Removes and returns the minimum-priority entry. Equal priorities come
    out in insertion order (FIFO). *)

val min_le : 'a t -> float -> bool
(** [min_le q bound]: [q] is non-empty and its minimum priority is
    [<= bound]. Allocates nothing — with {!pop_value}, the way to drain
    every entry due by some instant. *)

val pop_value : 'a t -> 'a
(** Removes the minimum-priority entry, as {!pop} does, and returns
    only its value, allocating nothing. Raises [Invalid_argument] on an
    empty queue. *)

val to_list : 'a t -> (float * 'a) list
(** Non-destructive snapshot in exact pop order (priority, then
    insertion order). Re-pushing the returned pairs into a fresh queue,
    in order, rebuilds a queue with identical pop behaviour — the
    checkpoint/restore path of {!Nu_serve} relies on this. *)
