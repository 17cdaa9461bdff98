(** JSON codecs for the online controller's durable state.

    Every encoder/decoder pair round-trips bit-exactly for the values
    the controller persists: scalar floats serialise through
    {!Nu_obs.Json.Float} (whose repr is checked to re-parse to the same
    double), 64-bit PRNG cursors travel as decimal strings, and paths
    serialise as node lists resolved back against the topology's graph
    at load time. The two bulk sections, the network's placed flows and
    the stepper's departure queue, are stored as columns: one array per
    field, each checked against a stored row count. Decoders return
    [Error msg] on malformed input — checkpoints and journals are
    validated, never trusted. *)

module Json := Nu_obs.Json

val field : string -> Json.t -> (Json.t, string) result
val opt_field : string -> Json.t -> Json.t option
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

val fault_to_json : Nu_fault.Fault_model.fault -> Json.t

val injector_frozen_to_json : Nu_fault.Injector.frozen -> Json.t

val injector_frozen_of_json :
  Json.t -> (Nu_fault.Injector.frozen, string) result

val float_column_to_json : float array -> Json.t
(** One JSON string of 16 hex digits per value, the IEEE-754 bits:
    bit-exact for every double, including [-0.], subnormals,
    infinities and NaN payloads. *)

val float_column_of_json : n:int -> Json.t -> (float array, string) result
(** Inverse of {!float_column_to_json}. [Error] — never an exception —
    unless the string holds exactly [n] values of lowercase hex. *)

val net_frozen_to_json : Net_state.frozen -> Json.t

val net_frozen_of_json :
  Graph.t -> Json.t -> (Net_state.frozen, string) result
(** Paths are re-resolved against [Graph.t]; an edge-less hop is a
    decode error, and every flow record is rebuilt through the checked
    {!Flow_record.v}. *)

val event_result_to_json : Engine.event_result -> Json.t
val event_result_of_json : Json.t -> (Engine.event_result, string) result

val stepper_frozen_to_json : Engine.Stepper.frozen -> Json.t
val stepper_frozen_of_json : Json.t -> (Engine.Stepper.frozen, string) result

val admission_frozen_to_json : Admission.frozen -> Json.t
val admission_frozen_of_json : Json.t -> (Admission.frozen, string) result
