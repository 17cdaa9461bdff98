(** The one storage layer: how records and files reach disk, and how
    damage is read back.

    {b Record logs.} Every append-only record stream — the serving
    WAL, the coordinator's decisions journal, the watchdog's
    observation and alert journals, the request-lifecycle stream — is
    a chain of segments in one format ("NUWAL002"). Segment 0 is the
    log path itself, segment [i > 0] is [path ^ ".seg" ^ i]; the
    newest segment has the highest index. Every segment starts with
    the 8-byte magic ["NUWAL002"], followed by frames back to back:

    {v 'N' 'J' | length u32-LE | crc32 u32-LE | payload v}

    The CRC32 (IEEE 802.3, reflected) covers the payload only. The
    reader verifies every frame and {e skips} damage instead of dying
    on it: a bad header, CRC or length costs the frames it touches
    (the scan resyncs on the next frame magic), a torn tail ends the
    segment, and every skip is reported as a {!corrupt_frame}.

    {b Whole files.} {!publish} replaces a file atomically and durably
    (temp file, fsync, rename, directory fsync); {!read_file} reads
    one back.

    {b Fault injection.} An optional {!Store_fault.t} device sees
    every physical operation of a writer or read opened with it. No
    other module calls its hooks. *)

val segment_path : string -> int -> string
(** [segment_path base i] is [base] for segment 0, [base ^ ".seg" ^ i]
    otherwise. *)

(** {2 Record log writer} *)

type writer

val open_writer :
  ?append:bool -> ?segment_bytes:int -> ?fault:Store_fault.t -> string -> writer
(** Open a log for writing; it rotates to a new segment past
    [segment_bytes] (default 4 MiB). [append] defaults to [false], which
    truncates segment 0 and removes stale higher segments; with
    [~append:true] the writer continues in the newest existing
    segment. *)

val append : writer -> string -> unit
(** Frame and append one payload, rotating to a new segment when the
    current one would exceed the segment size. Buffered: call {!flush}
    to push it to the file. Raises [Invalid_argument] on a closed
    writer. *)

val flush : writer -> unit
(** Flush and (logically) fsync the current segment. *)

val close : writer -> unit
(** Flush, then close (idempotent). *)

val abort : writer -> unit
(** Crash-path close: release the channel without flushing, leaving
    the on-disk bytes exactly as the fault device left them. *)

val records_written : writer -> int
(** Payloads appended through this writer. *)

(** {2 Record log reader} *)

type corrupt_frame = {
  cf_segment : int;
  cf_offset : int;  (** Byte offset in the segment. *)
  cf_reason : string;
  cf_torn : bool;
      (** A torn tail: the segment ends inside this header or frame
          and no intact frame follows — the shape of a crash
          mid-append. *)
}

type 'a report = {
  entries : 'a list;  (** Every frame that decoded cleanly, in write order. *)
  corrupt : corrupt_frame list;
  frames : int;  (** Clean frames decoded. *)
  segments : int;  (** Segment files visited. *)
}

val read_report :
  ?fault:Store_fault.t ->
  decode:(string -> ('a, string) result) ->
  string ->
  ('a report, string) result
(** Tolerant read of the whole segment chain. A payload [decode]
    refuses is reported as a corrupt frame. [Error] only for an
    unreadable segment-0 file; damage is reported, not raised. *)

val report_to_json : 'a report -> Json.t
(** Frame counts and the corrupt-frame list. *)

(** {2 Whole files} *)

val publish : ?fault:Store_fault.t -> string -> string -> unit
(** [publish path data]: write [data] to [path ^ ".tmp"], fsync it,
    rename it over [path] and fsync the directory. A crash at any
    point leaves the old file or the new one, never a torn one. *)

val rename : ?fault:Store_fault.t -> string -> string -> unit
(** [rename src dst] is [Sys.rename], with the fault device's
    durability tracking moved along. *)

val sync_dir : string -> unit
(** Fsync the directory holding [path] (best effort: not every
    filesystem hands out directory descriptors). *)

val read_file : ?fault:Store_fault.t -> string -> (string, string) result
(** The whole file, as the fault device lets it be read. *)
