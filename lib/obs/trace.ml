type value = Bool of bool | Int of int | Float of float | Str of string
type phase = Begin | End | Instant

type event = {
  phase : phase;
  name : string;
  ts_ns : int64;
  depth : int;
  attrs : (string * value) list;
}

type sink = { emit : event -> unit; flush : unit -> unit }

let now_ns () = Monotonic_clock.now ()

type span = {
  sp_name : string;
  sp_depth : int;  (* -1 marks the shared tracing-off token *)
  mutable sp_closed : bool;
}

let disabled_span = { sp_name = ""; sp_depth = -1; sp_closed = true }
let sink : sink option ref = ref None
let stack : span list ref = ref []

(* Worker domains see tracing as off: the sink and span stack are
   single-writer structures owned by the main domain. *)
let enabled () = Option.is_some !sink && not (Obs_domain.in_worker ())

let install s =
  (match !sink with Some old -> old.flush () | None -> ());
  stack := [];
  sink := Some s

let uninstall () =
  (match !sink with Some s -> s.flush () | None -> ());
  sink := None;
  stack := []

let span ?(attrs = []) name =
  match if Obs_domain.in_worker () then None else !sink with
  | None -> disabled_span
  | Some s ->
      let depth = List.length !stack in
      let sp = { sp_name = name; sp_depth = depth; sp_closed = false } in
      stack := sp :: !stack;
      s.emit { phase = Begin; name; ts_ns = now_ns (); depth; attrs };
      sp

let finish ?(attrs = []) sp =
  if sp.sp_depth >= 0 && not sp.sp_closed then
    match !sink with
    | None -> sp.sp_closed <- true (* sink removed mid-span *)
    | Some s -> (
        match !stack with
        | top :: rest when top == sp ->
            stack := rest;
            sp.sp_closed <- true;
            s.emit
              {
                phase = End;
                name = sp.sp_name;
                ts_ns = now_ns ();
                depth = sp.sp_depth;
                attrs;
              }
        | _ ->
            invalid_arg ("Trace.finish: non-LIFO close of span " ^ sp.sp_name))

(* Exceptional-path cleanup: pop and close every span above [sp] on the
   stack (children the raising function left open), then [sp] itself,
   emitting End events so the recorded trace stays a well-formed tree
   and later spans see an uncorrupted stack. *)
let unwind sp =
  if sp.sp_depth >= 0 && not sp.sp_closed then
    match !sink with
    | None -> sp.sp_closed <- true
    | Some s ->
        if List.memq sp !stack then begin
          let rec pop = function
            | [] -> []
            | top :: rest ->
                top.sp_closed <- true;
                s.emit
                  {
                    phase = End;
                    name = top.sp_name;
                    ts_ns = now_ns ();
                    depth = top.sp_depth;
                    attrs = [ ("unwound", Bool true) ];
                  };
                if top == sp then rest else pop rest
          in
          stack := pop !stack
        end
        else sp.sp_closed <- true (* sink reinstalled mid-span *)

let with_span name f =
  match if Obs_domain.in_worker () then None else !sink with
  | None -> f ()
  | Some _ -> (
      let sp = span name in
      match f () with
      | v ->
          if not sp.sp_closed then finish sp;
          v
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          unwind sp;
          Printexc.raise_with_backtrace e bt)

let instant ?(attrs = []) name =
  match if Obs_domain.in_worker () then None else !sink with
  | None -> ()
  | Some s ->
      s.emit
        {
          phase = Instant;
          name;
          ts_ns = now_ns ();
          depth = List.length !stack;
          attrs;
        }

let memory () =
  let events = ref [] in
  ( {
      emit = (fun e -> events := e :: !events);
      flush = (fun () -> ());
    },
    fun () -> List.rev !events )
