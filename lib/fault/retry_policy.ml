type t = { max_attempts : int; base_backoff_s : float; multiplier : float }

let default = { max_attempts = 3; base_backoff_s = 0.05; multiplier = 2.0 }

let validate t =
  if t.max_attempts < 1 then Error "max_attempts must be >= 1"
  else if t.base_backoff_s < 0.0 then Error "base_backoff_s must be >= 0"
  else if t.multiplier < 1.0 then Error "multiplier must be >= 1"
  else Ok ()

let backoff_s t ~attempt =
  if attempt < 1 then invalid_arg "Retry_policy.backoff_s: attempt < 1";
  t.base_backoff_s *. (t.multiplier ** float_of_int (attempt - 1))

let decide t ~attempt =
  if attempt >= t.max_attempts then `Degrade
  else `Retry_after (backoff_s t ~attempt)
