module Json = Nu_obs.Json
module Injector = Nu_fault.Injector
module Store = Nu_obs.Store

let ( let* ) = Result.bind

let format_tag = "nu_serve_checkpoint"
let version = 4

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
  coord : Coord.frozen;
}

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
      ("coord", Coord.frozen_to_json cp.coord);
    ]

(* The file is two lines: the header, then the printed core. The hash
   covers the core bytes exactly as stored, so a load checks it over
   the file's own span before parsing and never prints anything. *)
let encode cp =
  let core = Json.to_string (core_to_json cp) in
  let hash = Nu_obs.Fnv.string_hex core in
  let header =
    Json.Obj
      [
        ("format", Json.String format_tag);
        ("version", Json.Int version);
        ("seq", Json.Int cp.seq);
        ("hash", Json.String hash);
      ]
  in
  (String.concat "\n" [ Json.to_string header; core; "" ], hash)

let to_string cp = fst (encode cp)

(* The header line at the front of file bytes: the offset of the
   newline that ends it, and its (seq, hash) once format and version
   check out. *)
let read_header data =
  let bad m = "bad checkpoint header: " ^ m in
  let* i =
    Option.to_result ~none:(bad "line is not terminated")
      (String.index_opt data '\n')
  in
  let* j = Result.map_error bad (Json.of_string (String.sub data 0 i)) in
  let field decode name = Result.map_error bad (decode name j) in
  let* tag = field Codec.string_field "format" in
  if tag <> format_tag then Error (Printf.sprintf "not a checkpoint: %S" tag)
  else
    let* v = field Codec.int_field "version" in
    if v <> version then
      Error
        (Printf.sprintf "unsupported checkpoint version %d (expected %d)" v
           version)
    else
      let* seq = field Codec.int_field "seq" in
      let* hash = field Codec.string_field "hash" in
      Ok (i, seq, hash)

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
  let* cj = Codec.field "coord" j in
  let* coord = Coord.frozen_of_json cj in
  Ok { tick; seq; parent; meta; net; injector; source; shards; coord }

let of_string ~graph data =
  let* i, seq, claimed = read_header data in
  let stop =
    if String.ends_with ~suffix:"\n" data then String.length data - 1
    else String.length data
  in
  let core = String.sub data (i + 1) (max 0 (stop - i - 1)) in
  let actual = Nu_obs.Fnv.string_hex core in
  if claimed <> actual then
    Error
      (Printf.sprintf
         "checkpoint content hash mismatch: header says %s, core hashes to %s"
         claimed actual)
  else
    let* j = Json.of_string core in
    let* cp = core_of_json ~graph j in
    if cp.seq <> seq then
      Error
        (Printf.sprintf "checkpoint header seq %d disagrees with core seq %d" seq
           cp.seq)
    else Ok cp

let save ?fault path cp =
  let data, hash = encode cp in
  Store.publish ?fault path data;
  Nu_obs.Counters.incr Nu_obs.Counters.Serve_checkpoints;
  hash

let load ?fault ~graph path =
  let* data = Store.read_file ?fault path in
  of_string ~graph data

(* ------------------------------------------------------------------ *)
(* Verified checkpoint chain: [base] is the newest generation,
   [base.1] its parent, ... up to [default_keep] ancestors.            *)

module Chain = struct
  let default_keep = 2

  let gen_path base i = if i = 0 then base else Printf.sprintf "%s.%d" base i

  (* Oldest-first renames keep the rotation crash-safe: if we die
     mid-way, the previous newest checkpoint still exists at [base]
     or [base.1], where fallback looks first. *)
  let rotate ?fault base =
    let drop = gen_path base default_keep in
    if Sys.file_exists drop then Sys.remove drop;
    for i = default_keep - 1 downto 0 do
      let src = gen_path base i in
      if Sys.file_exists src then
        Store.rename ?fault src (gen_path base (i + 1))
    done;
    Store.sync_dir base

  (* seq/parent come from the previous newest's header line alone; a
     file without a usable header starts the chain afresh. The read
     takes no fault device: it is not one of the save's storage
     operations. *)
  let save ?fault base cp =
    let seq, parent =
      match Result.bind (Store.read_file base) read_header with
      | Ok (_, s, h) -> (s + 1, Some h)
      | Error _ -> (0, None)
    in
    rotate ?fault base;
    save ?fault base { cp with seq; parent }

  (* Newest generation that loads AND verifies; its generation index
     is the fallback depth (0 = newest). *)
  let fallback ?fault ~graph base =
    let rec go errs i =
      if i > default_keep then
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
