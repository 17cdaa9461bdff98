(** Durable serving checkpoint, verified and chained: the one format
    for every {!Shard_fabric}, one shard ({!Serve}) or many.

    A checkpoint is the atomic bundle of frozen component states — the
    shared network, the optional fault injector, the arrival-source
    cursor, every shard's engine stepper, admission queue and deferred
    requests, and the fabric's partition map, coordinator and hot-shard
    trackers — stamped with the tick it was taken at and an opaque
    caller [meta] blob (the fabric fingerprint, validated on restore).

    On disk (format version 3) a checkpoint is one JSON object:
    {v { "format": ..., "version": 3, "hash": <fnv64 of core>, "core": {...} } v}
    The content hash covers the printed form of the core object and is
    re-verified on every load, so a flipped bit anywhere in the state
    is detected instead of thawed. Other versions are refused.

    Saves publish through {!Nu_obs.Store.publish} — write-then-rename
    with an fsync of the file before the rename and of the containing
    directory after it, atomic {e and} durable — and print the core
    once, hashing the same bytes they write. Loads validate everything and return [Error] rather than
    trusting the file.

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
  partition : Partition.frozen;
  coord : Coord.frozen;
  ewma : float list;  (** Per-shard load EWMA. *)
  streak : int list;  (** Per-shard consecutive hot ticks. *)
}

val content_hash : t -> string
(** FNV-1a 64 hash (16 hex digits) of the serialised core state. *)

val to_json : t -> Nu_obs.Json.t
val of_json : graph:Graph.t -> Nu_obs.Json.t -> (t, string) result

val save : ?fault:Nu_obs.Store_fault.t -> string -> t -> string
(** Atomic durable save; returns the content hash and bumps the
    [serve_checkpoints] counter. Physical I/O routes through [fault]
    when given. *)

val load :
  ?fault:Nu_obs.Store_fault.t ->
  graph:Graph.t ->
  string ->
  (t, string) result
(** Load and verify (format, version, content hash, field shapes). *)

(** Rotated generations of one checkpoint path. *)
module Chain : sig
  val default_keep : int
  (** Ancestors retained besides the newest (2). *)

  val gen_path : string -> int -> string
  (** [gen_path base i] is [base] for generation 0 (newest),
      [base ^ "." ^ i] otherwise. *)

  val save :
    ?fault:Nu_obs.Store_fault.t -> ?keep:int -> string -> t -> string
  (** Rotate generations (dropping the one beyond [keep]), then save
      [cp] as the new newest with [seq]/[parent] threaded from the
      previous newest. Returns the content hash. *)

  val existing : ?keep:int -> string -> (int * string) list
  (** The (generation, path) pairs present on disk, newest first. *)

  val fallback :
    ?fault:Nu_obs.Store_fault.t ->
    ?keep:int ->
    graph:Graph.t ->
    string ->
    (t * int, string) result
  (** Newest generation that loads and verifies, with its generation
      index (0 = newest) as the fallback depth. [Error] when no
      generation verifies, listing each failure. *)
end
