(** Durable write-ahead log for the serving loop: a {!Nu_obs.Store}
    record log whose payloads are JSON entries.

    Entries are arrivals plus per-tick commit markers. A tick's
    arrivals are journaled and flushed {e before} the engine acts on
    them; [Tick_done t] commits the tick. On recovery, a trailing
    uncommitted tick is discarded and regenerated from the
    deterministic source. *)

type entry =
  | Arrive of { tick : int; request : Request.t }
      (** A request surfaced at [tick], journaled before admission. *)
  | Tick_done of int  (** Commit marker: the tick completed. *)

(** {2 Writer} *)

type writer = Nu_obs.Store.writer
(** Flush, close and abort through {!Nu_obs.Store}. *)

val open_writer : ?fault:Nu_obs.Store_fault.t -> string -> writer
(** {!Nu_obs.Store.open_writer}. *)

val segment_path : string -> int -> string
(** {!Nu_obs.Store.segment_path}. *)

val write : writer -> entry -> unit
(** Frame and append one entry. *)

val entries_written : writer -> int

(** {2 Reader} *)

type 'a log_report = 'a Nu_obs.Store.report = {
  entries : 'a list;
  corrupt : Nu_obs.Store.corrupt_frame list;
  frames : int;
  segments : int;
}

type report = entry log_report

val read_report :
  ?fault:Nu_obs.Store_fault.t -> string -> (report, string) result
(** Tolerant read of the whole segment chain; see
    {!Nu_obs.Store.read_report}. *)

(** {2 Interpretation} *)

val committed_ticks : entry list -> (int * Request.t list) list
(** The committed (tick, arrivals-in-journal-order) groups, in tick
    order; trailing uncommitted arrivals are dropped. *)

val write_committed :
  writer -> below:int -> (int * Request.t list) list -> unit
(** Re-roll: append every committed group whose tick is below [below]
    (its arrivals, then its commit marker) and flush. Recovery rewrites
    the clean committed prefix into a fresh segment chain this way,
    dropping corrupt frames and any uncommitted tail. *)

