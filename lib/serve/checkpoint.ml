module Json = Nu_obs.Json
module Injector = Nu_fault.Injector
module Store = Nu_obs.Store

let ( let* ) = Result.bind

let format_tag = "nu_serve_checkpoint"
let version = 3

type shard = {
  stepper : Engine.Stepper.frozen;
  admission : Admission.frozen;
  deferred : Request.t list;
}

type t = {
  tick : int;
  seq : int;
  parent : string option;
  meta : Json.t;
  net : Net_state.frozen;
  injector : Injector.frozen option;
  source : Source.frozen;
  shards : shard list;
  partition : Partition.frozen;
  coord : Coord.frozen;
  ewma : float list;
  streak : int list;
}

(* The "core" object is everything the content hash covers. Hashing
   the printed form is sound because print∘parse is canonical for this
   Json library (the fingerprint comparison below already relies on
   that), so a loaded core re-serialises to the byte-identical string
   that was hashed at save time. *)
let core_to_json cp =
  Json.Obj
    [
      ("tick", Json.Int cp.tick);
      ("seq", Json.Int cp.seq);
      ( "parent",
        match cp.parent with None -> Json.Null | Some h -> Json.String h );
      ("meta", cp.meta);
      ("net", Codec.net_frozen_to_json cp.net);
      ( "injector",
        match cp.injector with
        | None -> Json.Null
        | Some fz -> Codec.injector_frozen_to_json fz );
      ("source", Source.frozen_to_json cp.source);
      ( "shards",
        Json.List
          (List.map
             (fun sh ->
               Json.Obj
                 [
                   ("stepper", Codec.stepper_frozen_to_json sh.stepper);
                   ("admission", Codec.admission_frozen_to_json sh.admission);
                   ( "deferred",
                     Json.List (List.map Codec.request_to_json sh.deferred) );
                 ])
             cp.shards) );
      ("partition", Partition.frozen_to_json cp.partition);
      ("coord", Coord.frozen_to_json cp.coord);
      ("ewma", Json.List (List.map (fun f -> Json.Float f) cp.ewma));
      ("streak", Json.List (List.map (fun n -> Json.Int n) cp.streak));
    ]

let content_hash cp = Nu_obs.Fnv.string_hex (Json.to_string (core_to_json cp))

let envelope ~hash core =
  Json.Obj
    [
      ("format", Json.String format_tag);
      ("version", Json.Int version);
      ("hash", Json.String hash);
      ("core", core);
    ]

let to_json cp =
  let core = core_to_json cp in
  envelope ~hash:(Nu_obs.Fnv.string_hex (Json.to_string core)) core

(* The file bytes and the content hash from ONE print of the core: the
   envelope is printed around a placeholder and the printed core is
   spliced in — byte-identical to printing [to_json cp], without
   printing the (multi-megabyte) core twice. *)
let to_file_string cp =
  let core = Json.to_string (core_to_json cp) in
  let hash = Nu_obs.Fnv.string_hex core in
  let outer = Json.to_string (envelope ~hash Json.Null) in
  let head = String.length outer - String.length "null}" in
  (String.concat "" [ String.sub outer 0 head; core; "}\n" ], hash)

let shard_of_json sj =
  let* stj = Codec.field "stepper" sj in
  let* stepper = Codec.stepper_frozen_of_json stj in
  let* aj = Codec.field "admission" sj in
  let* admission = Codec.admission_frozen_of_json aj in
  let* dl = Codec.list_field "deferred" sj in
  let* deferred = Codec.map_m Codec.request_of_json dl in
  Ok { stepper; admission; deferred }

let core_of_json ~graph j =
  let* tick = Codec.int_field "tick" j in
  let* seq = Codec.int_field "seq" j in
  let parent =
    match Codec.opt_field "parent" j with
    | Some (Json.String h) -> Some h
    | _ -> None
  in
  let meta = Option.value (Codec.opt_field "meta" j) ~default:Json.Null in
  let* nj = Codec.field "net" j in
  let* net = Codec.net_frozen_of_json graph nj in
  let* injector =
    match Codec.opt_field "injector" j with
    | None | Some Json.Null -> Ok None
    | Some ij ->
        let* fz = Codec.injector_frozen_of_json ij in
        Ok (Some fz)
  in
  let* srcj = Codec.field "source" j in
  let* source = Source.frozen_of_json srcj in
  let* shl = Codec.list_field "shards" j in
  let* shards = Codec.map_m shard_of_json shl in
  let* pj = Codec.field "partition" j in
  let* partition = Partition.frozen_of_json pj in
  let* cj = Codec.field "coord" j in
  let* coord = Coord.frozen_of_json cj in
  let* el = Codec.list_field "ewma" j in
  let* ewma = Codec.map_m Codec.as_float el in
  let* kl = Codec.list_field "streak" j in
  let* streak = Codec.map_m Codec.as_int kl in
  Ok
    {
      tick;
      seq;
      parent;
      meta;
      net;
      injector;
      source;
      shards;
      partition;
      coord;
      ewma;
      streak;
    }

let of_json ~graph j =
  let* tag = Codec.string_field "format" j in
  if tag <> format_tag then Error (Printf.sprintf "not a checkpoint: %S" tag)
  else
    let* v = Codec.int_field "version" j in
    if v <> version then
      Error (Printf.sprintf "unsupported checkpoint version %d (expected %d)" v version)
    else
      let* claimed = Codec.string_field "hash" j in
      let* core = Codec.field "core" j in
      let actual = Nu_obs.Fnv.string_hex (Json.to_string core) in
      if claimed <> actual then
        Error
          (Printf.sprintf
             "checkpoint content hash mismatch: file says %s, core hashes to %s"
             claimed actual)
      else core_of_json ~graph core

let save ?fault path cp =
  let data, hash = to_file_string cp in
  Store.publish ?fault path data;
  Nu_obs.Counters.incr Nu_obs.Counters.Serve_checkpoints;
  hash

let read_json ?fault path =
  let* contents = Store.read_file ?fault path in
  Json.of_string (String.trim contents)

let load ?fault ~graph path =
  let* j = read_json ?fault path in
  of_json ~graph j

(* ------------------------------------------------------------------ *)
(* Verified checkpoint chain: [base] is the newest generation,
   [base.1] its parent, ... up to [keep] ancestors.                    *)

module Chain = struct
  let default_keep = 2

  let gen_path base i = if i = 0 then base else Printf.sprintf "%s.%d" base i

  (* Outer header of an existing file, without decoding the core:
     enough to thread seq/parent into the next save. Any damage reads
     as "no usable header". *)
  let peek_header path =
    match read_json path with
    | Error _ -> None
    | Ok j -> (
        match (Codec.opt_field "hash" j, Codec.opt_field "core" j) with
        | Some (Json.String h), Some core -> (
            match Codec.opt_field "seq" core with
            | Some (Json.Int s) -> Some (s, h)
            | _ -> None)
        | _ -> None)

  (* Oldest-first renames keep the rotation crash-safe: if we die
     mid-way, the previous newest checkpoint still exists at [base]
     or [base.1], where fallback looks first. *)
  let rotate ?fault ~keep base =
    let drop = gen_path base keep in
    if Sys.file_exists drop then Sys.remove drop;
    for i = keep - 1 downto 0 do
      let src = gen_path base i in
      if Sys.file_exists src then
        Store.rename ?fault src (gen_path base (i + 1))
    done;
    Store.sync_dir base

  let save ?fault ?(keep = default_keep) base cp =
    let seq, parent =
      match peek_header base with
      | Some (s, h) -> (s + 1, Some h)
      | None -> (0, None)
    in
    rotate ?fault ~keep base;
    save ?fault base { cp with seq; parent }

  let existing ?(keep = default_keep) base =
    List.filter_map
      (fun i ->
        let p = gen_path base i in
        if Sys.file_exists p then Some (i, p) else None)
      (List.init (keep + 1) Fun.id)

  (* Newest generation that loads AND verifies; its generation index
     is the fallback depth (0 = newest). *)
  let fallback ?fault ?(keep = default_keep) ~graph base =
    let rec go errs i =
      if i > keep then
        Error
          (Printf.sprintf "no verifiable checkpoint in chain %s (%s)" base
             (String.concat "; " (List.rev errs)))
      else
        let p = gen_path base i in
        if not (Sys.file_exists p) then
          go (Printf.sprintf "%s: missing" p :: errs) (i + 1)
        else
          match load ?fault ~graph p with
          | Ok cp -> Ok (cp, i)
          | Error e -> go (Printf.sprintf "%s: %s" p e :: errs) (i + 1)
    in
    go [] 0
end
