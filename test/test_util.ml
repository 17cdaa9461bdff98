(* Helpers shared by several suites. *)

(* One generated spec as an all-installs event. *)
let of_spec spec = List.hd (Event.of_specs [ spec ])
