(* Hysteretic health state machine — see health.mli. *)

type state = Ok | Warn | Critical | Recovering

(* Consecutive firing ticks to escalate Ok -> Warn and Warn ->
   Critical; consecutive quiet ticks to de-escalate Warn -> Ok and
   Critical -> Recovering; further quiet ticks for Recovering -> Ok. *)
let warn_after = 3
let crit_after = 5
let clear_after = 5
let recover_after = 5

type t = {
  mutable st : state;
  mutable firing_run : int; (* consecutive firing ticks in this state *)
  mutable quiet_run : int; (* consecutive quiet ticks in this state *)
}

let create () = { st = Ok; firing_run = 0; quiet_run = 0 }
let state t = t.st

let enter t s =
  t.st <- s;
  t.firing_run <- 0;
  t.quiet_run <- 0;
  Some s

let observe t ~firing =
  if firing then begin
    t.firing_run <- t.firing_run + 1;
    t.quiet_run <- 0
  end
  else begin
    t.quiet_run <- t.quiet_run + 1;
    t.firing_run <- 0
  end;
  match t.st with
  | Ok -> if firing && t.firing_run >= warn_after then enter t Warn else None
  | Warn ->
      if firing && t.firing_run >= crit_after then enter t Critical
      else if (not firing) && t.quiet_run >= clear_after then enter t Ok
      else None
  | Critical ->
      if (not firing) && t.quiet_run >= clear_after then enter t Recovering
      else None
  | Recovering ->
      (* Any relapse during recovery goes straight back to Critical:
         the incident was evidently not over. *)
      if firing then enter t Critical
      else if t.quiet_run >= recover_after then enter t Ok
      else None

let state_name = function
  | Ok -> "ok"
  | Warn -> "warn"
  | Critical -> "critical"
  | Recovering -> "recovering"

let state_rank = function Ok -> 0 | Warn -> 1 | Critical -> 2 | Recovering -> 3
