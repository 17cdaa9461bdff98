(* Hysteretic health state machine — see health.mli. *)

type state = Ok | Warn | Critical | Recovering

type config = {
  warn_after : int;
  crit_after : int;
  clear_after : int;
  recover_after : int;
}

let default = { warn_after = 3; crit_after = 5; clear_after = 5; recover_after = 5 }

type t = {
  cfg : config;
  mutable st : state;
  mutable firing_run : int; (* consecutive firing ticks in this state *)
  mutable quiet_run : int; (* consecutive quiet ticks in this state *)
}

let create cfg = { cfg; st = Ok; firing_run = 0; quiet_run = 0 }
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
  | Ok -> if firing && t.firing_run >= t.cfg.warn_after then enter t Warn else None
  | Warn ->
      if firing && t.firing_run >= t.cfg.crit_after then enter t Critical
      else if (not firing) && t.quiet_run >= t.cfg.clear_after then enter t Ok
      else None
  | Critical ->
      if (not firing) && t.quiet_run >= t.cfg.clear_after then enter t Recovering
      else None
  | Recovering ->
      (* Any relapse during recovery goes straight back to Critical:
         the incident was evidently not over. *)
      if firing then enter t Critical
      else if t.quiet_run >= t.cfg.recover_after then enter t Ok
      else None

let state_name = function
  | Ok -> "ok"
  | Warn -> "warn"
  | Critical -> "critical"
  | Recovering -> "recovering"

let state_rank = function Ok -> 0 | Warn -> 1 | Critical -> 2 | Recovering -> 3
