(* Deterministic region-keyed partition map. Hosts fold into [regions]
   contiguous blocks — on the Fat-Tree topologies hosts are pod-major,
   so with [regions] = pod count a region IS a pod — and each region is
   owned by exactly one shard. The map is a pure function of its three
   sizes, and routing a request reads only the request itself and the
   map, so it is total and stable: every event id lands on exactly one
   shard, in whatever order requests show up. *)

type t = { host_count : int; regions : int; shards : int }

let create ~host_count ~regions ~shards =
  if shards < 1 then invalid_arg "Partition.create: shards must be >= 1";
  if regions < shards then
    invalid_arg "Partition.create: regions must be >= shards";
  if host_count < regions then
    invalid_arg "Partition.create: host_count must be >= regions";
  { host_count; regions; shards }


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
  (* Contiguous balanced blocks: region r -> shard r*S/R, the same
     rounding that folds hosts into regions. *)
  r * t.shards / t.regions

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

let home_of_event t e = shard_of_region t (home_region_of_event t e)
