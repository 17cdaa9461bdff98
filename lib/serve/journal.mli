(** Durable write-ahead log for the serving loop.

    On-disk format ("NUWAL002"): a journal is a chain of segments —
    segment 0 is the journal path itself, segment [i > 0] is
    [path ^ ".seg" ^ i]; the newest segment has the highest index.
    Every segment starts with the 8-byte magic ["NUWAL002"], followed
    by frames back to back:

    {v 'N' 'J' | length u32-LE | crc32 u32-LE | payload (JSON entry) v}

    The CRC32 (IEEE 802.3, reflected) covers the payload only. The
    reader verifies every frame and {e skips} damage instead of dying
    on it: a bad CRC or implausible length costs the one frame (the
    scan resyncs on the next frame magic), a torn tail ends the
    segment, and every skip is reported as a {!corrupt_frame}. Journals
    written by the pre-WAL JSONL format are still readable.

    Entries are arrivals plus per-tick commit markers. A tick's
    arrivals are journaled and flushed {e before} the engine acts on
    them; [Tick_done t] commits the tick. On recovery, a trailing
    uncommitted tick is discarded and regenerated from the
    deterministic source. *)

type entry =
  | Arrive of { tick : int; request : Request.t }
      (** A request surfaced at [tick], journaled before admission. *)
  | Tick_done of int  (** Commit marker: the tick completed. *)

val entry_to_json : entry -> Nu_obs.Json.t
val entry_of_json : Nu_obs.Json.t -> (entry, string) result

val crc32 : string -> int
(** IEEE 802.3 reflected CRC32 of a string, in [0, 2^32). *)

val segment_path : string -> int -> string
(** [segment_path base i] is [base] for segment 0, [base ^ ".seg" ^ i]
    otherwise. *)

val default_segment_bytes : int
(** Rotation threshold (4 MiB). *)

(** {2 Writer} *)

type writer

val open_writer :
  ?append:bool ->
  ?segment_bytes:int ->
  ?fault:Nu_fault.Store_fault.t ->
  string ->
  writer
(** Open a journal for writing. [append] defaults to [false], which
    truncates segment 0 and removes stale higher segments; with
    [~append:true] the writer continues in the newest existing
    segment. All physical I/O is routed through [fault] when given. *)

val write : writer -> entry -> unit
(** Frame and append one entry, rotating to a new segment when the
    current one exceeds the segment size. Raises [Invalid_argument] on
    a closed writer. *)

val flush : writer -> unit
(** Flush and (logically) fsync the current segment. *)

val close_writer : writer -> unit

val abort_writer : writer -> unit
(** Crash-path close: release the channel without flushing, leaving
    the on-disk bytes exactly as the fault device left them. *)

val entries_written : writer -> int

(** {2 Reader} *)

type corrupt_frame = {
  cf_segment : int;
  cf_offset : int;
      (** Byte offset in the segment (line number if legacy). *)
  cf_reason : string;
}

type report = {
  entries : entry list;
      (** Every frame that decoded cleanly, in write order. *)
  corrupt : corrupt_frame list;
  frames : int;  (** Clean frames decoded. *)
  segments : int;  (** Segment files visited. *)
  legacy : bool;  (** True when the file was pre-WAL JSONL. *)
}

val report_to_json : report -> Nu_obs.Json.t
(** Corrupt-frame report artifact for the crash-storm harness. *)

val read_report :
  ?fault:Nu_fault.Store_fault.t -> string -> (report, string) result
(** Tolerant read of the whole segment chain. [Error] only for an
    unreadable segment-0 file; corruption is reported, not raised. *)

val read : string -> (entry list, string) result
(** [read_report] keeping just the clean entries. *)

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

type commits = Empty | Committed of int

val last_commit : entry list -> commits
(** Highest committed tick, or [Empty] when the journal holds no commit
    marker at all — distinguishing "fresh/torn-to-nothing journal" from
    "committed through tick 0". *)
