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

let add_core buf cp =
  let open Codec in
  let trees f l = tree (Json.List (List.map f l)) in
  add_obj buf
    [
      ("tick", tree (Json.Int cp.tick));
      ("seq", tree (Json.Int cp.seq));
      ( "parent",
        tree (match cp.parent with None -> Json.Null | Some h -> Json.String h)
      );
      ("meta", tree cp.meta);
      ("net", fun buf -> add_net_frozen buf cp.net);
      ( "injector",
        tree
          (match cp.injector with
          | None -> Json.Null
          | Some fz -> injector_frozen_to_json fz) );
      ("source", tree (Source.frozen_to_json cp.source));
      ( "shards",
        fun buf ->
          add_list buf
            (fun buf sh ->
              add_obj buf
                [
                  ("stepper", fun buf -> add_stepper_frozen buf sh.stepper);
                  ("admission", tree (admission_frozen_to_json sh.admission));
                  ("deferred", trees request_to_json sh.deferred);
                ])
            cp.shards );
      ("coord", tree (Coord.frozen_to_json cp.coord));
    ]

(* The file is two lines: the header, then the printed core. The hash
   covers the core bytes exactly as stored, so a load checks it over
   the file's own span before parsing and never prints anything. *)
let encode cp =
  let buf = Buffer.create (1 lsl 16) in
  add_core buf cp;
  let core = Buffer.contents buf in
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
  let* j = Result.map_error bad (Json.read ~len:i data Json.value) in
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

let read_shard c =
  let open Codec in
  let stepper = ref None and admission = ref None and deferred = ref None in
  Json.fields c (function
    | "stepper" -> put c stepper read_stepper_frozen
    | "admission" -> put c admission (sub admission_frozen_of_json)
    | "deferred" -> put c deferred (list_of (sub request_of_json))
    | _ -> Json.skip c);
  {
    stepper = get c "stepper" stepper;
    admission = get c "admission" admission;
    deferred = get c "deferred" deferred;
  }

let read_core ~graph c =
  let open Codec in
  let tick = ref None and seq = ref None and parent = ref None in
  let meta = ref None and net = ref None and injector = ref None in
  let source = ref None and shards = ref None and coord = ref None in
  Json.fields c (function
    | "tick" -> put c tick Json.int
    | "seq" -> put c seq Json.int
    | "parent" ->
        put c parent (fun c ->
            match Json.value c with Json.String h -> Some h | _ -> None)
    | "meta" -> put c meta Json.value
    | "net" -> put c net (read_net_frozen graph)
    | "injector" ->
        put c injector (fun c ->
            if Json.null c then None else Some (sub injector_frozen_of_json c))
    | "source" -> put c source (sub Source.frozen_of_json)
    | "shards" -> put c shards (list_of read_shard)
    | "coord" -> put c coord (sub Coord.frozen_of_json)
    | _ -> Json.skip c);
  {
    tick = get c "tick" tick;
    seq = get c "seq" seq;
    parent = Option.join !parent;
    meta = Option.value !meta ~default:Json.Null;
    net = get c "net" net;
    injector = Option.join !injector;
    source = get c "source" source;
    shards = get c "shards" shards;
    coord = get c "coord" coord;
  }

(* The core is hashed and read in place, as a span of the file bytes. *)
let of_string ~graph data =
  let* i, seq, claimed = read_header data in
  let stop =
    if String.ends_with ~suffix:"\n" data then String.length data - 1
    else String.length data
  in
  let pos = i + 1 and len = max 0 (stop - i - 1) in
  let actual = Nu_obs.Fnv.(hex (substring basis data ~pos ~len)) in
  if claimed <> actual then
    Error
      (Printf.sprintf
         "checkpoint content hash mismatch: header says %s, core hashes to %s"
         claimed actual)
  else
    let* cp = Json.read ~pos ~len data (read_core ~graph) in
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

(* [fault] reaches a read only through [Chain.fallback]. *)
let read ?fault ~graph path =
  let* data = Store.read_file ?fault path in
  of_string ~graph data

let load ~graph path = read ~graph path

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

  (* A file's first line, with its newline when it has one. *)
  let first_line path =
    let read ic =
      let buf = Buffer.create 128 in
      let rec go () =
        match In_channel.input_char ic with
        | None -> ()
        | Some '\n' -> Buffer.add_char buf '\n'
        | Some ch ->
            Buffer.add_char buf ch;
            go ()
      in
      go ();
      Buffer.contents buf
    in
    match In_channel.with_open_bin path read with
    | line -> Ok line
    | exception Sys_error msg -> Error msg

  (* seq/parent come from the previous newest's header line alone, and
     only that line is read; a file without a usable header starts the
     chain afresh. The read takes no fault device: it is not one of the
     save's storage operations. *)
  let save ?fault base cp =
    let seq, parent =
      match Result.bind (first_line base) read_header with
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
          match read ?fault ~graph p with
          | Ok cp -> Ok (cp, i)
          | Error e -> go (Printf.sprintf "%s: %s" p e :: errs) (i + 1)
    in
    go [] 0
end
