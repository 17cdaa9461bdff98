include Serve_config

let ( let* ) = Result.bind

type t = Shard_fabric.t

let fabric_config cfg = Shard_fabric.default_config cfg ~shards:1

let create ?telemetry ?journal cfg ~topology ~net ~source_spec =
  Shard_fabric.create ?telemetry ?journal (fabric_config cfg) ~topology ~net
    ~source_spec

let tick = Shard_fabric.tick

let run ~ticks t = Shard_fabric.run t ~ticks

let complete = Shard_fabric.complete
let tick_count = Shard_fabric.tick_count
let result t = Engine.Stepper.result (Shard_fabric.stepper t 0)
let digest = Shard_fabric.digest
let set_journal t w = Shard_fabric.set_journal t 0 w
let retire t = List.hd (Shard_fabric.retire t)

let save_checkpoint ?fault t path =
  Checkpoint.Chain.save ?fault path (Shard_fabric.snapshot t)

let restore_snapshot ~config ~source_spec ~topology cp =
  Shard_fabric.restore_snapshot (fabric_config config) ~topology ~source_spec
    cp

let restore ~config ~source_spec ~topology path =
  let* cp = Checkpoint.load ~graph:topology.Topology.graph path in
  restore_snapshot ~config ~source_spec ~topology cp

let replay_prefix t entries =
  Shard_fabric.replay_groups t [| Journal.committed_ticks entries |]

let replay ~journal t =
  let* groups = Shard_fabric.committed journal in
  match Shard_fabric.replay_groups t [| groups |] with
  | n, None -> Ok n
  | _, Some stop -> Error stop
