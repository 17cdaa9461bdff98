type t = { max_attempts : int }

let default = { max_attempts = 3 }

(* Every run backs off 50 ms after an event's first abort and doubles
   the wait after each further one. *)
let base_backoff_s = 0.05
let multiplier = 2.0

let validate t =
  if t.max_attempts < 1 then Error "max_attempts must be >= 1" else Ok ()

let backoff_s ~attempt =
  if attempt < 1 then invalid_arg "Retry_policy.backoff_s: attempt < 1";
  base_backoff_s *. (multiplier ** float_of_int (attempt - 1))

let decide t ~attempt =
  if attempt >= t.max_attempts then `Degrade
  else `Retry_after (backoff_s ~attempt)
