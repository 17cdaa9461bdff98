(** JSON codecs for the online controller's durable state.

    Every encoder/decoder pair round-trips bit-exactly for the values
    the controller persists: scalar floats serialise through
    {!Nu_obs.Json.Float} (whose repr is checked to re-parse to the same
    double), 64-bit PRNG cursors travel as decimal strings, and paths
    serialise as node lists resolved back against the topology's graph
    at load time. The two bulk sections, the network's placed flows and
    the stepper's departure queue, are stored as columns: one array per
    field, each checked against a stored row count.

    The small records have tree codecs ([*_to_json]/[*_of_json]). The
    frozen network and stepper, which hold the bulk of a checkpoint,
    print straight into a buffer ([add_*]) and read straight from a
    {!Nu_obs.Json.cursor} ([read_*]), building no tree; the bytes are
    the ones the tree printer would produce for the same value, and
    object members are accepted in any order, unknown keys skipped.
    Decoders refuse malformed input — [Error msg] from the tree
    decoders, {!Nu_obs.Json.fail} from the readers — checkpoints and
    journals are validated, never trusted. *)

module Json := Nu_obs.Json

val field : string -> Json.t -> (Json.t, string) result
val int_field : string -> Json.t -> (int, string) result
val float_field : string -> Json.t -> (float, string) result
(** Accepts [Int] too: an integral-valued float prints without a
    decimal point and re-parses as [Int]; the double is identical. *)

val string_field : string -> Json.t -> (string, string) result
val list_field : string -> Json.t -> (Json.t list, string) result
val map_m : ('a -> ('b, string) result) -> 'a list -> ('b list, string) result

val int64_to_json : int64 -> Json.t
val int64_of_json : Json.t -> (int64, string) result

val event_to_json : Event.t -> Json.t
val event_of_json : Json.t -> (Event.t, string) result

val request_to_json : Request.t -> Json.t
val request_of_json : Json.t -> (Request.t, string) result

val policy_to_json : Policy.t -> Json.t

val injector_frozen_to_json : Nu_fault.Injector.frozen -> Json.t

val injector_frozen_of_json :
  Json.t -> (Nu_fault.Injector.frozen, string) result

(** {2 Direct printing and reading} *)

val add_obj : Buffer.t -> (string * (Buffer.t -> unit)) list -> unit
(** An object whose members print themselves, in list order. *)

val tree : Json.t -> Buffer.t -> unit
(** A member printed from its tree. *)

val add_list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit

val put : Json.cursor -> 'a option ref -> (Json.cursor -> 'a) -> unit
(** Read a member into its slot; a key's first binding wins and later
    ones are only checked ({!Nu_obs.Json.skip}), as {!Nu_obs.Json.member}
    does on a tree. *)

val get : Json.cursor -> string -> 'a option ref -> 'a
(** A filled slot; fails with [missing field "name"] otherwise. *)

val sub : (Json.t -> ('a, string) result) -> Json.cursor -> 'a
(** Read one value as a tree and decode it with a tree codec. *)

val list_of : (Json.cursor -> 'a) -> Json.cursor -> 'a list

val add_float_column : Buffer.t -> float array -> unit
(** One JSON string of 16 hex digits per value, the IEEE-754 bits:
    bit-exact for every double, including [-0.], subnormals,
    infinities and NaN payloads. *)

val float_column_of_string :
  n:int -> pos:int -> len:int -> string -> (float array, string) result
(** Inverse of {!add_float_column}, from the string's span
    [\[pos, pos + len)] (as {!Nu_obs.Json.string_span} gives it). [Error] — never an exception — unless the span holds exactly
    [n] values of lowercase hex; [Invalid_argument] only for a span
    outside the string. *)

val add_net_frozen : Buffer.t -> Net_state.frozen -> unit

val read_net_frozen : Graph.t -> Json.cursor -> Net_state.frozen
(** Paths are re-resolved against [Graph.t]; an edge-less hop is a
    decode error, and every flow record is rebuilt through the checked
    {!Flow_record.v}. *)

val event_result_to_json : Engine.event_result -> Json.t
val event_result_of_json : Json.t -> (Engine.event_result, string) result

val add_stepper_frozen : Buffer.t -> Engine.Stepper.frozen -> unit
val read_stepper_frozen : Json.cursor -> Engine.Stepper.frozen

val admission_frozen_to_json : Admission.frozen -> Json.t
val admission_frozen_of_json : Json.t -> (Admission.frozen, string) result
