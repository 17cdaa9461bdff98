(** Deterministic storage-fault injection for the durable serving
    store.

    Where {!Fault_model} schedules dataplane faults by simulated time,
    this module schedules {e storage} faults by I/O operation index: a
    seeded plan maps the n-th physical store operation (journal append,
    fsync, checkpoint write, recovery read) to a fault — torn write at
    byte k, single bit-flip, short read, ENOSPC, delayed fsync loss, or
    plain process death. {!Store} routes every physical operation of a
    writer, read or publish opened with a device through the hooks
    below, so a crash-storm run is a pure function of (workload seed,
    fault seed) and replays bit-identically.

    Simulated crashes are the {!Crash} exception; the supervisor
    catches it and restarts the serve loop. Delayed fsync loss is
    modelled faithfully: an acknowledged-but-lost sync leaves the bytes
    on disk until the next crash, at which point the file is truncated
    back to its last durable length. *)

type kind =
  | Torn_write  (** Persist a prefix of the buffer, then crash. *)
  | Bit_flip  (** Flip one bit of the buffer; the write proceeds. *)
  | Short_read  (** Deliver only a prefix of the file on read. *)
  | Enospc  (** The append fails with {!Store_error}. *)
  | Fsync_loss
      (** The sync is acknowledged but not durable: bytes written since
          the last durable sync vanish at the next crash. *)
  | Kill  (** Process death before the operation runs. *)


type fault = {
  at_op : int;  (** 1-based store-operation index the fault arms at. *)
  kind : kind;
  knob : float;
      (** Kind-specific dial in [0,1): torn-write keep fraction,
          bit-flip position, short-read keep fraction. *)
}

type plan = fault list
(** Sorted by [at_op]; at most one fault fires per operation. *)

type config = {
  n_faults : int;
  ops_span : int;  (** Fault indices are drawn from [1, ops_span]. *)
}

val generate : ?config:config -> seed:int -> unit -> plan
(** Deterministic: equal (config, seed) produce equal plans (default
    config: 8 faults over 240 ops). Fault kinds
    are drawn with the fixed [weights] in [store_fault.ml]: torn 3,
    flip 2, kill 2, short 1, enospc 1, fsync-loss 1. Every
    [Fsync_loss] is paired with a [Kill] a few ops later so the lost
    sync actually materialises. Raises [Invalid_argument] on a
    negative fault count or a non-positive span. *)

exception Crash of string
(** Simulated process death. *)

exception Store_error of string
(** Simulated I/O failure that is not a death (e.g. ENOSPC). *)

type t
(** A live injector: the pending plan plus per-file durability
    tracking and the fired-fault log. *)

val create : plan -> t

val fired_count : t -> int

val to_json : t -> Json.t
(** Plan + fired log, for the crash-storm fault-report artifact. *)

(** {2 Device hooks}

    Called by {!Store} around every physical operation. Each hook
    advances the operation counter, fires at most one applicable due
    fault, and may raise {!Crash} or {!Store_error}. *)

val register : t -> path:string -> size:int -> unit
(** Start durability tracking for [path] at [size] on-disk bytes. *)

type write_verdict =
  | Write of string  (** Write these bytes (possibly bit-flipped). *)
  | Torn of string
      (** Write this prefix, then call {!crash} — the caller must put
          the prefix on disk first so the torn state is observable. *)

val on_append : t -> path:string -> string -> write_verdict
val note_written : t -> path:string -> int -> unit
(** Bytes actually written (and OS-flushed) to [path]. *)

val on_sync : t -> path:string -> unit
(** An fsync of [path]: marks its bytes durable unless a fault lost
    the sync. *)

val on_read : t -> path:string -> string -> string
(** Filter a whole-file read (may shorten or flip). *)

val note_rename : t -> src:string -> dst:string -> unit
(** Transfer durability tracking across an atomic rename. *)

val crash : t -> reason:string -> 'a
(** Apply pending fsync-loss truncations, then raise {!Crash}. *)
