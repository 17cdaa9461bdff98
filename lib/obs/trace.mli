(** Structured tracing: hierarchical timed spans with typed attributes.

    A span is a named region of wall-clock time (monotonic clock,
    nanoseconds). Spans strictly nest: {!span} pushes onto a stack and
    {!finish} must close the innermost open span, so every recorded
    trace is a well-formed tree (run → round → plan/estimate/migrate/
    execute). Events stream into the installed {!type-sink}.

    Tracing is off by default and the off state is free: with no sink
    installed, {!enabled} is [false], {!span} returns a preallocated
    token, and {!finish}/{!instant}/{!with_span} do nothing. Hot paths
    guard attribute construction behind [if Trace.enabled () then ...]
    so an untraced run allocates nothing for instrumentation. *)

type value = Bool of bool | Int of int | Float of float | Str of string
(** Attribute values. *)

type phase = Begin | End | Instant

type event = {
  phase : phase;
  name : string;
  ts_ns : int64;  (** Monotonic clock. *)
  depth : int;  (** Open-span stack depth when emitted. *)
  attrs : (string * value) list;
}

type sink = { emit : event -> unit; flush : unit -> unit }

val install : sink -> unit
(** Install a sink and enable tracing (flushing any previous sink). The
    open-span stack is cleared. *)

val uninstall : unit -> unit
(** Flush and remove the sink; tracing returns to the free off state. *)

val enabled : unit -> bool

type span

val span : ?attrs:(string * value) list -> string -> span
(** Open a span: emits a [Begin] event and pushes the span. When
    tracing is off, returns a dummy token without emitting. *)

val finish : ?attrs:(string * value) list -> span -> unit
(** Close a span: emits an [End] event carrying [attrs] (measured
    results go here). Raises [Invalid_argument] if [span] is not the
    innermost open span — spans must close in LIFO order. *)

val with_span : string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] inside a span, closing it on any exit
    (including exceptions). When tracing is off this is just [f ()]. *)

val instant : ?attrs:(string * value) list -> string -> unit
(** Zero-duration marker at the current depth. *)

val memory : unit -> sink * (unit -> event list)
(** In-memory sink for tests and one-shot exports: the second component
    returns every event emitted so far, in order. *)

val now_ns : unit -> int64
(** Current reading of the monotonic clock. *)
