(* Deterministic region-keyed partition map. Hosts fold into [regions]
   contiguous blocks — on the Fat-Tree topologies hosts are pod-major,
   so with [regions] = pod count a region IS a pod — and each region is
   owned by exactly one shard. Routing a request reads only the request
   itself and the current assignment, never arrival history, so the map
   is total and stable: every event id lands on exactly one shard, in
   whatever order requests show up.

   The per-region arrival counters and [move] are kept for callers
   that reassign regions; the serving fabric never does, so in its
   checkpoints the counters stay zero and the generation 0. *)

module Json = Nu_obs.Json

type t = {
  host_count : int;
  regions : int;
  shards : int;
  assign : int array;  (* region -> owning shard *)
  arrivals : int array;  (* per-region arrivals since the last move *)
  mutable generation : int;
}

let create ~host_count ~regions ~shards =
  if shards < 1 then invalid_arg "Partition.create: shards must be >= 1";
  if regions < shards then
    invalid_arg "Partition.create: regions must be >= shards";
  if host_count < regions then
    invalid_arg "Partition.create: host_count must be >= regions";
  {
    host_count;
    regions;
    shards;
    (* Contiguous balanced blocks: region r -> shard r*S/R, the same
       rounding that folds hosts into regions. *)
    assign = Array.init regions (fun r -> r * shards / regions);
    arrivals = Array.make regions 0;
    generation = 0;
  }

let host_count t = t.host_count
let regions t = t.regions
let shards t = t.shards
let generation t = t.generation

let region_of_host t host =
  if host < 0 || host >= t.host_count then
    invalid_arg
      (Printf.sprintf "Partition.region_of_host: host %d outside [0, %d)" host
         t.host_count);
  host * t.regions / t.host_count

let shard_of_region t r =
  if r < 0 || r >= t.regions then
    invalid_arg
      (Printf.sprintf "Partition.shard_of_region: region %d outside [0, %d)" r
         t.regions);
  t.assign.(r)

(* The home region is a pure function of the event: the first Install's
   source host keys it; a Reroute-only event keys on the rerouted flow
   id, and (for safety — work lists are non-empty) an empty event keys
   on its own id. *)
let home_region_of_event t (e : Event.t) =
  let rec first_install = function
    | Event.Install fr :: _ -> Some (region_of_host t fr.Flow_record.src)
    | _ :: rest -> first_install rest
    | [] -> None
  in
  match first_install e.Event.work with
  | Some r -> r
  | None ->
      let rec first_reroute = function
        | Event.Reroute { flow_id; _ } :: _ -> Some flow_id
        | _ :: rest -> first_reroute rest
        | [] -> None
      in
      let key =
        match first_reroute e.Event.work with
        | Some fid -> fid
        | None -> e.Event.id
      in
      ((key mod t.regions) + t.regions) mod t.regions

let home_of_event t e = t.assign.(home_region_of_event t e)

let note_arrival t ~region =
  if region < 0 || region >= t.regions then
    invalid_arg "Partition.note_arrival: region out of range";
  t.arrivals.(region) <- t.arrivals.(region) + 1

let owned t shard =
  Array.fold_left (fun n s -> if s = shard then n + 1 else n) 0 t.assign

let move t ~region ~to_shard =
  if region < 0 || region >= t.regions then
    invalid_arg "Partition.move: region out of range";
  if to_shard < 0 || to_shard >= t.shards then
    invalid_arg "Partition.move: shard out of range";
  t.assign.(region) <- to_shard;
  t.generation <- t.generation + 1;
  (* A move resets the arrival window. *)
  Array.fill t.arrivals 0 t.regions 0

(* ------------------------------------------------------------------ *)
(* Freeze / thaw.                                                      *)

type frozen = {
  fz_assign : int list;
  fz_arrivals : int list;
  fz_generation : int;
}

let freeze t =
  {
    fz_assign = Array.to_list t.assign;
    fz_arrivals = Array.to_list t.arrivals;
    fz_generation = t.generation;
  }

let thaw ~host_count ~regions ~shards fz =
  if List.length fz.fz_assign <> regions then
    invalid_arg "Partition.thaw: assignment length mismatch";
  if List.length fz.fz_arrivals <> regions then
    invalid_arg "Partition.thaw: arrival counter length mismatch";
  List.iter
    (fun s ->
      if s < 0 || s >= shards then
        invalid_arg "Partition.thaw: assignment names an unknown shard")
    fz.fz_assign;
  let t = create ~host_count ~regions ~shards in
  List.iteri (fun r s -> t.assign.(r) <- s) fz.fz_assign;
  List.iteri (fun r n -> t.arrivals.(r) <- n) fz.fz_arrivals;
  t.generation <- fz.fz_generation;
  t

let frozen_to_json fz =
  Json.Obj
    [
      ("assign", Json.List (List.map (fun s -> Json.Int s) fz.fz_assign));
      ("arrivals", Json.List (List.map (fun n -> Json.Int n) fz.fz_arrivals));
      ("generation", Json.Int fz.fz_generation);
    ]

let ( let* ) = Result.bind

let frozen_of_json j =
  let* assign = Codec.list_field "assign" j in
  let* fz_assign = Codec.map_m Codec.as_int assign in
  let* arrivals = Codec.list_field "arrivals" j in
  let* fz_arrivals = Codec.map_m Codec.as_int arrivals in
  let* fz_generation = Codec.int_field "generation" j in
  Ok { fz_assign; fz_arrivals; fz_generation }

let to_json t =
  Json.Obj
    [
      ("host_count", Json.Int t.host_count);
      ("regions", Json.Int t.regions);
      ("shards", Json.Int t.shards);
      ("generation", Json.Int t.generation);
      ("assign", Json.List (Array.to_list (Array.map (fun s -> Json.Int s) t.assign)));
    ]
