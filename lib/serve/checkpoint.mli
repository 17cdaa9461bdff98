(** Durable serving checkpoint, verified and chained: the one format
    for every {!Shard_fabric}, one shard ({!Serve}) or many.

    A checkpoint is the atomic bundle of frozen component states — the
    shared network, the optional fault injector, the arrival-source
    cursor, every shard's engine stepper, admission queue and deferred
    requests, and the fabric's coordinator — stamped with the tick it
    was taken at and an opaque caller [meta] blob (the fabric
    fingerprint, validated on restore). The partition map is not
    frozen: it is a function of the fingerprint's shard and region
    counts, so a restore rebuilds it.

    On disk (format version 4) a checkpoint is two lines:
    {v {"format":"nu_serve_checkpoint","version":4,"seq":S,"hash":"H"}
<core JSON object> v}
    [H] is the FNV-1a 64 hash of the core line's bytes exactly as
    stored. A load checks the header, hashes the stored core span and
    refuses a mismatch before parsing the core, so a flipped bit
    anywhere in the state is detected instead of thawed; it also
    refuses a header [seq] that differs from the core's. Other
    versions are refused. Older version-4 files may also carry
    per-shard ["ewma"] and ["streak"] lists and a ["partition"]
    section; loads ignore them.

    Saves publish through {!Nu_obs.Store.publish} — write-then-rename
    with an fsync of the file before the rename and of the containing
    directory after it, atomic {e and} durable — and print the core
    once, hashing the same bytes they write. The network and stepper
    sections, nearly all of the bytes, print straight into the core's
    buffer ({!Codec.add_net_frozen}, {!Codec.add_stepper_frozen}); the
    small sections print from their JSON trees. The bytes are a
    function of the state alone (no wall clock), so equal runs write
    equal files.

    Loads hash the core where it lies in the file bytes, then read it
    with one {!Nu_obs.Json.cursor}: the bulk sections straight into
    frozen state, the small ones as subtrees through their tree
    codecs, so no tree of the whole core is built. Members are
    accepted in any order and unknown keys are skipped. Loads validate
    everything and return [Error] rather than trusting the file.

    {!Chain} keeps the last few generations on disk ([base] newest,
    [base.1] its parent, ...), each recording its parent's content
    hash, so recovery can fall back to the newest ancestor that still
    verifies. *)

type shard = {
  stepper : Engine.Stepper.frozen;
  admission : Admission.frozen;
  deferred : Request.t list;  (** Requests the Block policy pushed back. *)
}

type t = {
  tick : int;  (** Fabric tick the snapshot was taken after. *)
  seq : int;  (** Chain sequence number (0 for a first/standalone save). *)
  parent : string option;
      (** Content hash of the previous chain generation, if any. *)
  meta : Nu_obs.Json.t;  (** Caller blob, echoed verbatim. *)
  net : Net_state.frozen;
  injector : Nu_fault.Injector.frozen option;
  source : Source.frozen;
  shards : shard list;  (** Shard order. *)
  coord : Coord.frozen;
}

val to_string : t -> string
(** The file bytes: header line, core line, each ending in a newline. *)

val of_string : graph:Graph.t -> string -> (t, string) result
(** Verify and decode file bytes: header format and version, content
    hash over the stored core, header/core [seq] agreement, field
    shapes. *)

val load : graph:Graph.t -> string -> (t, string) result
(** {!of_string} of the file's bytes. *)

(** Rotated generations of one checkpoint path. *)
module Chain : sig
  val default_keep : int
  (** Ancestors retained besides the newest (2). *)

  val gen_path : string -> int -> string
  (** [gen_path base i] is [base] for generation 0 (newest),
      [base ^ "." ^ i] otherwise. *)

  val save : ?fault:Nu_obs.Store_fault.t -> string -> t -> string
  (** Rotate generations (dropping the one beyond {!default_keep}), then
      save [cp] as the new newest with [seq]/[parent] threaded from the
      previous newest's header line: an atomic durable write of
      {!to_string} that bumps the [serve_checkpoints] counter, with
      physical I/O routed through [fault] when given. Only that first
      line is read from disk, so a damaged core still threads. Returns
      the content hash. *)

  val fallback :
    ?fault:Nu_obs.Store_fault.t ->
    graph:Graph.t ->
    string ->
    (t * int, string) result
  (** Newest generation that loads and verifies, with its generation
      index (0 = newest) as the fallback depth. [Error] when no
      generation verifies, listing each failure. *)
end
