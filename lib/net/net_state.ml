type placed = { record : Flow_record.t; path : Path.t }

(* Op tags. Every mutation of the state is one op, and the undo journal
   and the committed log hold the same ops in one vocabulary: an op
   records its forward effect with every operand needed both to undo it
   ({!undo} applies the inverse) and to re-apply it ({!apply_batch} runs
   it through the primitive that made it), so an outermost commit moves
   the journal's span into the log unchanged. The buffers are flat
   struct-of-arrays ([ops]) instead of variant lists: a probe writes
   thousands of ops and the list cells plus boxed floats dominated
   minor-heap traffic.

   A del always finds its entry: [release] deletes only the hops of a
   placed flow's simple path, and [remove] and [reroute] delete only a
   placed binding. A put is never a duplicate: [place] rejects a placed
   id and [reroute] deletes the old binding and path before it adds the
   new ones, so an on-edge put appends without a membership scan and a
   flow-table put meets no previous binding. The structural sweep's
   entries = hops check catches any put that breaks this. *)
let op_residual = 0 (* a = edge id, f = delta *)
let op_on_put = 1 (* a = edge id, b = flow id, f = demand, g = size *)
let op_on_del = 2 (* a = edge id, b = flow id, f = demand, g = size *)
let op_flow_put = 3 (* a = flow id, obj = the binding added *)
let op_flow_del = 4 (* a = flow id, obj = the binding removed *)
let op_disable = 5 (* a = edge id (set the disabled flag) *)
let op_enable = 6 (* a = edge id (clear the disabled flag) *)
let op_degraded = 7 (* a = edge id, f = ledger delta *)

(* The binding slot's "no binding": every op but a flow-table put or del
   carries it, and vacated slots hold it. A sentinel rather than an
   option, so an op boxes nothing. It is told apart by physical
   equality; its one-hop path lives on a graph of its own. *)
let absent =
  let g = Graph.create ~initial_nodes:2 () in
  let e, _ = Graph.add_link g ~a:0 ~b:1 ~capacity:0.0 in
  {
    record =
      {
        Flow_record.id = -1;
        src = 0;
        dst = 1;
        size_mbit = 0.0;
        duration_s = 1.0;
        arrival_s = 0.0;
      };
    path = Path.of_ids g [| e |];
  }

(* A flat op buffer: six parallel columns (tag / int operands / float
   operands / binding slot), used prefix [0, n). The undo journal and
   the committed log are both one. The [obj] slot holds {!absent}
   except under a live flow-table op. *)
type ops = {
  mutable tag : int array;
  mutable a : int array;
  mutable b : int array;
  mutable f : float array;
  mutable g : float array;
  mutable obj : placed array;
  mutable n : int;
}

(* A reader's position in the committed log: the absolute count of ops
   committed before the first one it has not consumed. *)
type cursor = { mutable pos : int; bounded : bool }

type t = {
  topo : Topology.t;
  capacity : float array;
      (* edge id -> capacity, unboxed; topology-pure, shared by copies *)
  residual : float array;  (* indexed by edge id *)
  flows : (int, placed) Hashtbl.t;  (* flow id -> placement *)
  mutable hops : int;
      (* the placed paths' hops summed over [flows]: what the on-edge
         sets must hold in all, read by the incremental sweep in place
         of a fold over every flow *)
  (* Per-edge flow-id sets as flat growable parallel arrays (used prefix
     is [0, oe_len.(e))): flow id, its demand in Mbps and its size in
     Mbit, side by side. Order within a set is insertion-and-swap-remove
     order and carries no meaning: every consumer sorts
     ({!flows_on_edge}), checks membership, or breaks ties explicitly by
     flow id (the migration pool). The flat layout makes {!copy_into} a
     plain [Array.copy] per edge — the dominant cost of per-domain probe
     snapshots when these were hashtables — and the cached demand/size
     let the migration pool rank a congested edge's flows without one
     hashtable resolution per flow. *)
  oe_data : int array array;
  oe_dem : float array array;
  oe_size : float array array;
  oe_len : int array;
  disabled : bool array;  (* administratively failed edges *)
  degraded : float array;  (* exogenous capacity loss (fault model), Mbps *)
  versions : int array;  (* per-edge write stamp (committed writes only) *)
  fabric : int list;  (* switch-to-switch edge ids *)
  is_fabric : bool array;
  inv_cap : float array;  (* 1/capacity for fabric edges, else 0 *)
  fabric_n : int;
  util : float array;
      (* [| running sum of fabric used/capacity; its Kahan compensation |]:
         a float array stores them unboxed, where a mutable float field
         of this record would box a fresh float on every write *)
  journal : ops;  (* undo journal of the open transactions *)
  mutable txn_marks : int array;  (* journal positions of open txns *)
  mutable txn_n : int;
  mutable disabled_n : int;  (* how many edges are administratively down *)
  mutable disabled_epoch : int;  (* bumped on every disable/enable *)
  mutable watch_on : bool;  (* probe read/write tracking active *)
  watch_seen : Bytes.t;  (* per-edge dedup mask for the probe set *)
  watch_buf : int array;  (* touched edges, dedup'd: at most one per edge *)
  mutable watch_n : int;
  (* Committed log. While some reader holds a cursor, every mutation
     that survives — writes outside any transaction as they happen,
     writes inside a transaction at its outermost commit — is appended
     here; rolled-back transactions never reach it (their journal span
     is discarded before the outermost commit). Each reader consumes
     it from its own cursor: the probe pool replays it into its worker
     mirrors, the incremental invariant check projects the flow ids it
     names. The prefix every cursor has passed is truncated. *)
  log : ops;
  mutable log_base : int;  (* absolute position of [log]'s first op *)
  mutable readers : cursor list;  (* recording iff non-empty *)
  memo_ro : bool;  (* domain snapshot: never write the shared memo *)
  paths_memo : (int, int array array) Hashtbl.t;
      (* (src switch, dst switch) -> ranked interior edge-id arrays;
         topology-pure, shared by copies *)
  (* Sweep scratch, sized on first use so copies that are never swept
     pay nothing: the expected residual per edge. *)
  mutable expected : float array;
}

let compute_fabric topo =
  Graph.fold_edges topo.Topology.graph ~init:[] ~f:(fun acc (e : Graph.edge) ->
      if Topology.is_host topo e.src || Topology.is_host topo e.dst then acc
      else e.id :: acc)
  |> List.rev

let ops_create cap =
  {
    tag = Array.make cap 0;
    a = Array.make cap 0;
    b = Array.make cap 0;
    f = Array.make cap 0.0;
    g = Array.make cap 0.0;
    obj = Array.make cap absent;
    n = 0;
  }

(* Double the capacity, keeping the used prefix. *)
let grow o =
  let cap = max 64 (2 * Array.length o.tag) in
  let ext col zero =
    let d = Array.make cap zero in
    Array.blit col 0 d 0 o.n;
    d
  in
  o.tag <- ext o.tag 0;
  o.a <- ext o.a 0;
  o.b <- ext o.b 0;
  o.f <- ext o.f 0.0;
  o.g <- ext o.g 0.0;
  o.obj <- ext o.obj absent

(* The binding is written only when there is one, so the other ops pay
   no write barrier: their slot already holds {!absent}. *)
let[@inline] push o tag a b f g obj =
  if o.n = Array.length o.tag then grow o;
  let i = o.n in
  Array.unsafe_set o.tag i tag;
  Array.unsafe_set o.a i a;
  Array.unsafe_set o.b i b;
  Array.unsafe_set o.f i f;
  Array.unsafe_set o.g i g;
  if obj != absent then Array.unsafe_set o.obj i obj;
  o.n <- i + 1

let journal_cap0 = 256

let create topo =
  let g = topo.Topology.graph in
  (* Force the CSR build while still single-domain: per-domain probe
     snapshots share the graph, and the lazy rebuild is not
     domain-safe. *)
  Graph.freeze g;
  let n_edges = Graph.edge_count g in
  let capacity = Array.init n_edges (fun id -> Graph.capacity g id) in
  let fabric = compute_fabric topo in
  let is_fabric = Array.make n_edges false in
  let inv_cap = Array.make n_edges 0.0 in
  List.iter
    (fun id ->
      is_fabric.(id) <- true;
      let cap = capacity.(id) in
      if cap > 0.0 then inv_cap.(id) <- 1.0 /. cap)
    fabric;
  {
    topo;
    capacity;
    residual = Array.copy capacity;
    flows = Hashtbl.create 1024;
    hops = 0;
    oe_data = Array.init n_edges (fun _ -> Array.make 8 0);
    oe_dem = Array.init n_edges (fun _ -> Array.make 8 0.0);
    oe_size = Array.init n_edges (fun _ -> Array.make 8 0.0);
    oe_len = Array.make n_edges 0;
    disabled = Array.make n_edges false;
    degraded = Array.make n_edges 0.0;
    versions = Array.make n_edges 0;
    fabric;
    is_fabric;
    inv_cap;
    fabric_n = List.length fabric;
    util = [| 0.0; 0.0 |];
    journal = ops_create journal_cap0;
    txn_marks = Array.make 8 0;
    txn_n = 0;
    disabled_n = 0;
    disabled_epoch = 0;
    watch_on = false;
    watch_seen = Bytes.make n_edges '\000';
    watch_buf = Array.make (max 1 n_edges) 0;
    watch_n = 0;
    log = ops_create 0;
    log_base = 0;
    readers = [];
    memo_ro = false;
    paths_memo = Hashtbl.create 256;
    expected = [||];
  }

(* The capacity of a per-edge row holding [len] flows. 25% headroom
   keeps speculative probe churn on a fresh copy or thaw from paying an
   immediate re-grow (large-array allocation contends across domains);
   [oe_append] re-grows a full (even empty) row on demand. *)
let slack len = len + 4 + (len / 4)

let copy_into ?(memo_ro = false) t =
  let flows = Hashtbl.copy t.flows in
  (* Copy only each edge's used prefix. Speculative migration churn can
     grow an edge's capacity far beyond its live occupancy (the arrays
     never shrink), and trimming turns tens of megabytes of dead slack
     into a few hundred kilobytes of live entries. *)
  let sub_int len a =
    let d = Array.make (slack len) 0 in
    Array.blit a 0 d 0 len;
    d
  in
  let sub_float len a =
    let d = Array.make (slack len) 0.0 in
    Array.blit a 0 d 0 len;
    d
  in
  let oe_data = Array.mapi (fun e a -> sub_int t.oe_len.(e) a) t.oe_data in
  let oe_dem = Array.mapi (fun e a -> sub_float t.oe_len.(e) a) t.oe_dem in
  let oe_size = Array.mapi (fun e a -> sub_float t.oe_len.(e) a) t.oe_size in
  {
    topo = t.topo;
    capacity = t.capacity;
    residual = Array.copy t.residual;
    flows;
    hops = t.hops;
    oe_data;
    oe_dem;
    oe_size;
    oe_len = Array.copy t.oe_len;
    disabled = Array.copy t.disabled;
    degraded = Array.copy t.degraded;
    versions = Array.copy t.versions;
    fabric = t.fabric;
    is_fabric = t.is_fabric;
    inv_cap = t.inv_cap;
    fabric_n = t.fabric_n;
    util = Array.copy t.util;
    journal = ops_create journal_cap0;
    txn_marks = Array.make 8 0;
    txn_n = 0;
    disabled_n = t.disabled_n;
    disabled_epoch = t.disabled_epoch;
    watch_on = false;
    watch_seen = Bytes.make (Array.length t.residual) '\000';
    watch_buf = Array.make (max 1 (Array.length t.residual)) 0;
    watch_n = 0;
    log = ops_create 0;
    log_base = 0;
    readers = [];
    memo_ro;
    paths_memo = t.paths_memo;
    expected = [||];
  }

let copy t =
  if t.txn_n > 0 then invalid_arg "Net_state.copy: open transaction";
  Nu_obs.Counters.incr Nu_obs.Counters.State_copies;
  copy_into t

(* A probe snapshot for a worker domain. Unlike {!copy} it is allowed
   inside an open transaction (the arrays hold the speculative values a
   sequential probe would read), shares the path memo read-only, and is
   deliberately uncounted so [Counters.diff] output stays independent of
   the domain count. *)
let snapshot t = copy_into ~memo_ro:true t

let topology t = t.topo
let graph t = t.topo.Topology.graph

(* ------------------------------------------------------------------ *)
(* Checkpoint freeze/thaw. The frozen form captures every piece of
   state that can influence a future decision *bit-exactly*: residuals
   and the Kahan pair are copied verbatim rather than recomputed from
   the placements, because floating-point accumulation is
   order-sensitive and a recomputed residual could differ from the live
   one in its low bits — enough to flip a feasibility comparison and
   break digest-equality of restored runs. *)

type frozen = {
  fz_flows : placed list;  (* sorted by flow id *)
  fz_residual : float array;
  fz_degraded : float array;
  fz_disabled : bool array;
  fz_versions : int array;
  fz_disabled_epoch : int;
  fz_util_sum : float;
  fz_util_comp : float;
}

let freeze t =
  if t.txn_n > 0 then invalid_arg "Net_state.freeze: open transaction";
  let flows =
    Hashtbl.fold (fun _ placed acc -> placed :: acc) t.flows []
    |> List.sort (fun a b ->
           Int.compare a.record.Flow_record.id b.record.Flow_record.id)
  in
  {
    fz_flows = flows;
    fz_residual = Array.copy t.residual;
    fz_degraded = Array.copy t.degraded;
    fz_disabled = Array.copy t.disabled;
    fz_versions = Array.copy t.versions;
    fz_disabled_epoch = t.disabled_epoch;
    fz_util_sum = t.util.(0);
    fz_util_comp = t.util.(1);
  }

(* Position of [fid] in edge [e]'s set, or -1. The sets are small (the
   flows crossing one link) and contiguous, so the linear scan is
   competitive with a hashtable probe and allocation-free. It runs from
   the back: a flow sits on an edge at most once, so the position is the
   same either way, and the undo of an on-edge put looks for an entry
   appended moments before. *)
let oe_index t e fid =
  let data = Array.unsafe_get t.oe_data e in
  let i = ref (Array.unsafe_get t.oe_len e - 1) in
  while !i >= 0 && Array.unsafe_get data !i <> fid do
    decr i
  done;
  !i

(* Double edge [e]'s full row of [n] entries. [max 8] also covers
   exact-size (possibly empty) arrays from {!copy_into}'s trimmed
   per-edge copies. *)
let oe_grow t e n =
  let grow_int a =
    let d = Array.make (max 8 (2 * n)) 0 in
    Array.blit a 0 d 0 n;
    d
  in
  let grow_float a =
    let d = Array.make (max 8 (2 * n)) 0.0 in
    Array.blit a 0 d 0 n;
    d
  in
  t.oe_data.(e) <- grow_int t.oe_data.(e);
  t.oe_dem.(e) <- grow_float t.oe_dem.(e);
  t.oe_size.(e) <- grow_float t.oe_size.(e)

(* Inlined, with the growth out of line: a call would box [dem] and
   [size] on every hop. *)
let[@inline] oe_append t e fid dem size =
  let n = t.oe_len.(e) in
  if n = Array.length t.oe_data.(e) then oe_grow t e n;
  t.oe_data.(e).(n) <- fid;
  t.oe_dem.(e).(n) <- dem;
  t.oe_size.(e).(n) <- size;
  t.oe_len.(e) <- n + 1

(* Swap-remove: order inside a set is meaningless (see the field
   comment), so filling the hole with the last element is safe. *)
let[@inline] oe_remove_at t e i =
  let n = t.oe_len.(e) - 1 in
  t.oe_data.(e).(i) <- t.oe_data.(e).(n);
  t.oe_dem.(e).(i) <- t.oe_dem.(e).(n);
  t.oe_size.(e).(i) <- t.oe_size.(e).(n);
  t.oe_len.(e) <- n

let thaw topo fz =
  let t = create topo in
  let n_edges = Array.length t.residual in
  if
    Array.length fz.fz_residual <> n_edges
    || Array.length fz.fz_degraded <> n_edges
    || Array.length fz.fz_disabled <> n_edges
    || Array.length fz.fz_versions <> n_edges
  then invalid_arg "Net_state.thaw: frozen state does not match the topology";
  Array.blit fz.fz_residual 0 t.residual 0 n_edges;
  Array.blit fz.fz_degraded 0 t.degraded 0 n_edges;
  Array.blit fz.fz_disabled 0 t.disabled 0 n_edges;
  Array.blit fz.fz_versions 0 t.versions 0 n_edges;
  let disabled_n = ref 0 in
  Array.iter (fun d -> if d then incr disabled_n) t.disabled;
  t.disabled_n <- !disabled_n;
  t.disabled_epoch <- fz.fz_disabled_epoch;
  t.util.(0) <- fz.fz_util_sum;
  t.util.(1) <- fz.fz_util_comp;
  (* Each edge's rows in two passes: count the hops per edge, then fill
     rows of [slack count] in flow order, which is the order appending
     one flow at a time would leave. A path never repeats an edge, so
     every hop is a new row once flow ids are distinct. *)
  let count = Array.make n_edges 0 in
  List.iter
    (fun placed ->
      let before = Hashtbl.length t.flows in
      Hashtbl.replace t.flows placed.record.Flow_record.id placed;
      if Hashtbl.length t.flows = before then
        invalid_arg "Net_state.thaw: duplicate flow id";
      t.hops <- t.hops + Path.hops placed.path;
      Array.iter
        (fun e -> count.(e) <- count.(e) + 1)
        (Path.hop_ids placed.path))
    fz.fz_flows;
  for e = 0 to n_edges - 1 do
    t.oe_data.(e) <- Array.make (slack count.(e)) 0;
    t.oe_dem.(e) <- Array.make (slack count.(e)) 0.0;
    t.oe_size.(e) <- Array.make (slack count.(e)) 0.0
  done;
  List.iter
    (fun placed ->
      let r = placed.record in
      let dem = Flow_record.demand_mbps r in
      Array.iter
        (fun e ->
          let i = t.oe_len.(e) in
          t.oe_data.(e).(i) <- r.Flow_record.id;
          t.oe_dem.(e).(i) <- dem;
          t.oe_size.(e).(i) <- r.Flow_record.size_mbit;
          t.oe_len.(e) <- i + 1)
        (Path.hop_ids placed.path))
    fz.fz_flows;
  t

(* ------------------------------------------------------------------ *)
(* Probe read-set tracking. A bytes mask dedups membership in O(1), and
   the touched ids land in a preallocated buffer (an edge can appear at
   most once, so [watch_buf] never grows) — probes touch edges millions
   of times per run, so a hashtable or accumulator list here dominated
   the tracking cost. Disabled-flag reads are deliberately *not*
   tracked per edge: [disabled_epoch] stands in for all of them (see
   {!candidates}). *)

let[@inline] touch t edge_id =
  if t.watch_on && Bytes.unsafe_get t.watch_seen edge_id = '\000' then begin
    Bytes.unsafe_set t.watch_seen edge_id '\001';
    Array.unsafe_set t.watch_buf t.watch_n edge_id;
    t.watch_n <- t.watch_n + 1
  end

let start_probe t =
  if t.watch_on then invalid_arg "Net_state.start_probe: probe already active";
  t.watch_on <- true

let stop_probe t =
  if not t.watch_on then invalid_arg "Net_state.stop_probe: no active probe";
  t.watch_on <- false;
  let n = t.watch_n in
  let acc = Array.sub t.watch_buf 0 n in
  for i = 0 to n - 1 do
    Bytes.unsafe_set t.watch_seen (Array.unsafe_get acc i) '\000'
  done;
  t.watch_n <- 0;
  Array.sort Int.compare acc;
  acc

(* ------------------------------------------------------------------ *)
(* Transaction journal. *)

let[@inline] journal_active t = t.txn_n > 0

let in_txn t = journal_active t
let disabled_epoch t = t.disabled_epoch
let edge_version t id =
  if id < 0 || id >= Array.length t.versions then
    invalid_arg "Net_state.edge_version: edge id";
  t.versions.(id)

(* ------------------------------------------------------------------ *)
(* Committed log. *)

let[@inline] logging t = t.readers != []

let[@inline] is_flow_op tag = tag = op_flow_put || tag = op_flow_del

(* How many ops logged since absolute position [pos] change a flow's
   binding. *)
let count_flow_ops t pos =
  let lo = t.log and k = ref 0 in
  for i = pos - t.log_base to lo.n - 1 do
    if is_flow_op lo.tag.(i) then incr k
  done;
  !k

(* The length of the logged prefix every cursor has passed: all of
   the log when none is open. *)
let passed t =
  List.fold_left (fun m c -> min m c.pos) (t.log_base + t.log.n) t.readers
  - t.log_base

(* Drop the prefix every cursor has passed, clearing the vacated
   binding slots. *)
let truncate t =
  let lo = t.log in
  let cut = passed t in
  if cut > 0 then begin
    let rest = lo.n - cut in
    Array.blit lo.tag cut lo.tag 0 rest;
    Array.blit lo.a cut lo.a 0 rest;
    Array.blit lo.b cut lo.b 0 rest;
    Array.blit lo.f cut lo.f 0 rest;
    Array.blit lo.g cut lo.g 0 rest;
    Array.blit lo.obj cut lo.obj 0 rest;
    Array.fill lo.obj rest cut absent;
    lo.n <- rest;
    t.log_base <- t.log_base + cut
  end

(* The log is full. A bounded cursor lagging more flow changes behind
   than the state has flows (plus slack) costs its reader as much as a
   full sweep, so it is dropped rather than let the log grow without a
   reader; then the log is truncated at the slowest remaining cursor
   and doubled if still more than half full. Returns whether anyone
   still reads. *)
let make_room t =
  let bound = Hashtbl.length t.flows + 1024 in
  t.readers <-
    List.filter
      (fun c -> (not c.bounded) || count_flow_ops t c.pos <= bound)
      t.readers;
  truncate t;
  if t.log.n > Array.length t.log.tag / 2 then grow t.log;
  logging t

let[@inline] log_op t tag a b f g obj =
  if logging t && (t.log.n < Array.length t.log.tag || make_room t) then
    push t.log tag a b f g obj

(* The ops that write an edge's capacity view, and so stamp its version
   once they are permanent. A degraded op rides on its paired residual
   op. *)
let[@inline] stamps tag =
  tag = op_residual || tag = op_disable || tag = op_enable

(* Every mutation funnels through here: inside a transaction the op is
   journaled, and the outermost commit stamps it and logs it; outside
   one it is stamped and logged at once. *)
let[@inline] record t tag a b f g obj =
  if journal_active t then push t.journal tag a b f g obj
  else begin
    if stamps tag then t.versions.(a) <- t.versions.(a) + 1;
    log_op t tag a b f g obj
  end

(* Kahan-compensated accumulation keeps the running fabric-utilisation
   sum accurate across millions of occupy/release pairs. *)
let[@inline] kadd t x =
  let u = t.util in
  let sum = Array.unsafe_get u 0 in
  let y = x -. Array.unsafe_get u 1 in
  let s = sum +. y in
  Array.unsafe_set u 1 ((s -. sum) -. y);
  Array.unsafe_set u 0 s

(* Every residual change also feeds probe tracking and the incremental
   utilisation sum. *)
let[@inline] apply_residual t e delta =
  touch t e;
  record t op_residual e 0 delta 0.0 absent;
  t.residual.(e) <- t.residual.(e) +. delta;
  (* used = capacity - residual, so utilisation moves opposite to the
     residual delta. *)
  if Array.unsafe_get t.is_fabric e then
    kadd t (-.(delta *. Array.unsafe_get t.inv_cap e))

(* [fid] is not on [e] (see the op tags). *)
let[@inline] on_edge_put t e fid dem size =
  record t op_on_put e fid dem size absent;
  oe_append t e fid dem size

(* [fid] is on [e] (see the op tags); an absent flow fails the array
   bounds check. The op carries the row's demand and size, so undo can
   restore them. *)
let[@inline] on_edge_del t e fid =
  let i = oe_index t e fid in
  record t op_on_del e fid t.oe_dem.(e).(i) t.oe_size.(e).(i) absent;
  oe_remove_at t e i

(* [id] is not placed (see the op tags). *)
let[@inline] flow_put t id p =
  record t op_flow_put id 0 0.0 0.0 p;
  t.hops <- t.hops + Path.hops p.path;
  Hashtbl.replace t.flows id p

let[@inline] flow_del t id p =
  record t op_flow_del id 0 0.0 0.0 p;
  t.hops <- t.hops - Path.hops p.path;
  Hashtbl.remove t.flows id

(* Undo journal op [i]; clears its binding slot. Residual and ledger
   ops subtract the delta they added, so a rollback may leave the
   residual and the utilisation pair off in their low bits, and an
   on-edge del's row returns at the row's end, not its old index. *)
let undo t i =
  let j = t.journal in
  let tag = j.tag.(i) and a = j.a.(i) in
  if tag = op_residual then begin
    let delta = j.f.(i) in
    t.residual.(a) <- t.residual.(a) -. delta;
    if t.is_fabric.(a) then kadd t (delta *. t.inv_cap.(a))
  end
  else if tag = op_on_put then begin
    let k = oe_index t a j.b.(i) in
    assert (k >= 0);
    oe_remove_at t a k
  end
  else if tag = op_on_del then oe_append t a j.b.(i) j.f.(i) j.g.(i)
  else if tag = op_flow_put then begin
    t.hops <- t.hops - Path.hops j.obj.(i).path;
    Hashtbl.remove t.flows a;
    j.obj.(i) <- absent
  end
  else if tag = op_flow_del then begin
    let p = j.obj.(i) in
    t.hops <- t.hops + Path.hops p.path;
    Hashtbl.replace t.flows a p;
    j.obj.(i) <- absent
  end
  else if tag = op_disable || tag = op_enable then begin
    let was = tag = op_enable in
    t.disabled.(a) <- was;
    t.disabled_n <- t.disabled_n + (if was then 1 else -1)
  end
  else if tag = op_degraded then t.degraded.(a) <- t.degraded.(a) -. j.f.(i)
  else assert false

let begin_txn t =
  if t.txn_n = Array.length t.txn_marks then
    t.txn_marks <- Array.append t.txn_marks (Array.make t.txn_n 0);
  t.txn_marks.(t.txn_n) <- t.journal.n;
  t.txn_n <- t.txn_n + 1

let rollback t =
  if t.txn_n = 0 then invalid_arg "Net_state.rollback: no open transaction"
  else begin
    Nu_obs.Counters.incr Nu_obs.Counters.Txn_rollbacks;
    let mark = t.txn_marks.(t.txn_n - 1) in
    for i = t.journal.n - 1 downto mark do
      undo t i
    done;
    t.journal.n <- mark;
    t.txn_n <- t.txn_n - 1
  end

let commit t =
  if t.txn_n = 0 then invalid_arg "Net_state.commit: no open transaction"
  else begin
    t.txn_n <- t.txn_n - 1;
    if t.txn_n = 0 then begin
      (* Outermost commit: the surviving journal — exactly the op stream
         of the committing transaction, inner rollbacks already excised
         — becomes permanent. Each op stamps what it wrote (once per op,
         as outside a transaction) and joins the log as it stands. Inner
         commits just merge into the enclosing transaction. *)
      Nu_obs.Counters.incr Nu_obs.Counters.Txn_commits;
      let j = t.journal in
      for i = 0 to j.n - 1 do
        let tag = j.tag.(i) and a = j.a.(i) in
        if stamps tag then t.versions.(a) <- t.versions.(a) + 1;
        log_op t tag a j.b.(i) j.f.(i) j.g.(i) j.obj.(i);
        if is_flow_op tag then j.obj.(i) <- absent
      done;
      j.n <- 0
    end
  end

(* ------------------------------------------------------------------ *)
(* Committed log: reader cursors. *)

type batch = ops

let open_cursor t ~bounded =
  let c = { pos = t.log_base + t.log.n; bounded } in
  t.readers <- c :: t.readers;
  c

let close_cursor t c =
  t.readers <- List.filter (fun r -> r != c) t.readers;
  truncate t

(* Move [c] past the whole log, then drop what every cursor has
   passed. *)
let advance t c =
  c.pos <- t.log_base + t.log.n;
  truncate t

let drain_batch t c =
  if not (List.memq c t.readers) then
    invalid_arg "Net_state.drain_batch: cursor not open on this state";
  let lo = t.log and i0 = c.pos - t.log_base in
  let n = lo.n - i0 in
  let sub col = Array.sub col i0 n in
  let batch =
    {
      tag = sub lo.tag;
      a = sub lo.a;
      b = sub lo.b;
      f = sub lo.f;
      g = sub lo.g;
      obj = sub lo.obj;
      n;
    }
  in
  advance t c;
  batch

(* Heapsort of the prefix [0, bound) of [a]: in place and allocation
   free, where [Array.sort] takes a whole array. [sift] restores the
   max-heap below [root]. *)
let sift (a : int array) root bound =
  let r = ref root and go = ref true in
  while !go do
    let c = (2 * !r) + 1 in
    if c >= bound then go := false
    else begin
      let c = if c + 1 < bound && a.(c + 1) > a.(c) then c + 1 else c in
      let v = a.(!r) in
      if a.(c) > v then begin
        a.(!r) <- a.(c);
        a.(c) <- v;
        r := c
      end
      else go := false
    end
  done

(* Sort the prefix [0, n) of [a] ascending and keep each id once, in
   place; returns the new prefix length. *)
let sort_uniq (a : int array) n =
  for i = (n / 2) - 1 downto 0 do
    sift a i n
  done;
  for last = n - 1 downto 1 do
    let v = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- v;
    sift a 0 last
  done;
  let k = ref 0 in
  for i = 0 to n - 1 do
    if i = 0 || a.(i) <> a.(!k - 1) then begin
      a.(!k) <- a.(i);
      incr k
    end
  done;
  !k

(* Room for [need] ids in the caller's buffer, keeping its prefix
   [0, keep). *)
let reserve (into : int array ref) ~keep need =
  if Array.length !into < need then begin
    let d = Array.make (max need (max 64 (2 * Array.length !into))) 0 in
    Array.blit !into 0 d 0 keep;
    into := d
  end

let drain_changed t c ~into =
  if not (List.memq c t.readers) then -1
  else begin
    let lo = t.log and n = ref 0 in
    for i = c.pos - t.log_base to lo.n - 1 do
      if is_flow_op lo.tag.(i) then begin
        reserve into ~keep:!n (!n + 1);
        !into.(!n) <- lo.a.(i);
        incr n
      end
    done;
    advance t c;
    (* A flow written many times is revisited once. *)
    sort_uniq !into !n
  end

(* ------------------------------------------------------------------ *)
(* Capacity accounting. *)

let residual t edge_id =
  if edge_id < 0 || edge_id >= Array.length t.residual then
    invalid_arg "Net_state.residual: edge id";
  touch t edge_id;
  t.residual.(edge_id)

let used t edge_id = Graph.capacity (graph t) edge_id -. residual t edge_id

let edge_utilization t edge_id =
  let cap = Graph.capacity (graph t) edge_id in
  if cap <= 0.0 then 0.0 else used t edge_id /. cap

let mean_utilization t =
  let n = Graph.edge_count (graph t) in
  if n = 0 then 0.0
  else begin
    let sum = ref 0.0 in
    for id = 0 to n - 1 do
      sum := !sum +. edge_utilization t id
    done;
    !sum /. float_of_int n
  end

let max_utilization t =
  let m = ref 0.0 in
  for id = 0 to Graph.edge_count (graph t) - 1 do
    m := max !m (edge_utilization t id)
  done;
  !m

let check_edge_id t id name =
  if id < 0 || id >= Array.length t.disabled then
    invalid_arg ("Net_state." ^ name ^ ": edge id")

let set_disabled t id v =
  if t.disabled.(id) <> v then begin
    record t (if v then op_disable else op_enable) id 0 0.0 0.0 absent;
    (* The epoch stays bumped even if the write is rolled back — a
       spurious cache invalidation at worst, never a stale hit. *)
    t.disabled_epoch <- t.disabled_epoch + 1;
    t.disabled_n <- t.disabled_n + (if v then 1 else -1);
    t.disabled.(id) <- v
  end

let disable_edge t id =
  check_edge_id t id "disable_edge";
  set_disabled t id true

let enable_edge t id =
  check_edge_id t id "enable_edge";
  set_disabled t id false

let edge_disabled t id =
  check_edge_id t id "edge_disabled";
  t.disabled.(id)

let[@inline] add_degraded t id delta =
  record t op_degraded id 0 delta 0.0 absent;
  t.degraded.(id) <- t.degraded.(id) +. delta

(* Exogenous capacity loss (the fault model's partial-degradation
   events). The loss is expressed as a residual delta, so feasibility
   checks and the incremental utilisation sum pick it up for free; the
   [degraded] ledger keeps [invariants_ok] able to reconstruct residuals
   and lets {!restore_edge_capacity} undo the loss exactly. The residual
   may go negative when placed flows already exceed the surviving
   capacity — the engine's fault handler evacuates flows until it is
   non-negative again. *)
let degrade_edge t id ~lost_mbps =
  check_edge_id t id "degrade_edge";
  if lost_mbps < 0.0 then invalid_arg "Net_state.degrade_edge: negative loss";
  if lost_mbps > 0.0 then begin
    apply_residual t id (-.lost_mbps);
    add_degraded t id lost_mbps
  end

let restore_edge_capacity t id =
  check_edge_id t id "restore_edge_capacity";
  let lost = t.degraded.(id) in
  if lost > 0.0 then begin
    apply_residual t id lost;
    (* x + (-x) is exactly 0.0: the ledger clears. *)
    add_degraded t id (-.lost)
  end

(* Replay a drained batch against a mirror: each op runs through the
   primitive that made it on the source, so membership scans, the Kahan
   utilisation sum and swap-remove order evolve as they did there. The
   mirror must be quiescent: no open transaction, no active probe, no
   cursor of its own. *)
let apply_batch t (o : batch) =
  if t.txn_n > 0 then invalid_arg "Net_state.apply_batch: open transaction";
  if t.watch_on then invalid_arg "Net_state.apply_batch: active probe";
  if logging t then invalid_arg "Net_state.apply_batch: cursor open";
  for i = 0 to o.n - 1 do
    let tag = o.tag.(i) and a = o.a.(i) in
    if tag = op_residual then apply_residual t a o.f.(i)
    else if tag = op_on_put then on_edge_put t a o.b.(i) o.f.(i) o.g.(i)
    else if tag = op_on_del then on_edge_del t a o.b.(i)
    else if tag = op_flow_put then flow_put t a o.obj.(i)
    else if tag = op_flow_del then flow_del t a o.obj.(i)
    else if tag = op_disable || tag = op_enable then
      set_disabled t a (tag = op_disable)
    else if tag = op_degraded then add_degraded t a o.f.(i)
    else assert false
  done

let fabric_edges t = t.fabric

let mean_fabric_utilization t =
  (* Maintained incrementally in occupy/release: O(1), where the fold
     over fabric edge ids was O(edges) per call. *)
  if t.fabric_n = 0 then 0.0
  else
    let v = t.util.(0) /. float_of_int t.fabric_n in
    if v < 0.0 then 0.0 else v

let flow t id =
  match Hashtbl.find_opt t.flows id with
  | None -> None
  | Some p as r ->
      (* A probe that looked a flow up depends on its placement; its
         path's edges stand in for it in the read set (any reroute or
         removal of the flow re-stamps them). *)
      if t.watch_on then begin
        let ids = Path.hop_ids p.path in
        for i = 0 to Array.length ids - 1 do
          touch t (Array.unsafe_get ids i)
        done
      end;
      r

let flow_count t = Hashtbl.length t.flows

let is_placed t id =
  if t.watch_on then flow t id <> None else Hashtbl.mem t.flows id

let iter_flows t f = Hashtbl.iter (fun _ placed -> f placed) t.flows

let flows_on_edge t edge_id =
  if edge_id < 0 || edge_id >= Array.length t.oe_len then
    invalid_arg "Net_state.flows_on_edge: edge id";
  touch t edge_id;
  (* Copy the id prefix, sort the ints in place, then resolve each
     placement once — cheaper than sorting boxed records, and the output
     (ascending flow id) is identical whatever internal order the
     swap-removes left behind. *)
  let ids = Array.sub t.oe_data.(edge_id) 0 t.oe_len.(edge_id) in
  Array.sort Int.compare ids;
  Array.fold_right (fun id acc -> Hashtbl.find t.flows id :: acc) ids []

let edge_flow_count t edge_id =
  if edge_id < 0 || edge_id >= Array.length t.oe_len then
    invalid_arg "Net_state.edge_flow_count: edge id";
  t.oe_len.(edge_id)

(* Allocation-free feed for the migration pool: copy the edge's (id,
   demand, size) columns into caller-owned scratch. Entry order is the
   internal swap-remove order and carries no meaning — callers must
   either sort or break ties by flow id. Touches the edge like
   {!flows_on_edge} did, so probe read sets are unchanged. *)
let edge_flows_blit t edge_id ~ids ~dem ~size =
  if edge_id < 0 || edge_id >= Array.length t.oe_len then
    invalid_arg "Net_state.edge_flows_blit: edge id";
  touch t edge_id;
  let n = t.oe_len.(edge_id) in
  if Array.length ids < n || Array.length dem < n || Array.length size < n
  then invalid_arg "Net_state.edge_flows_blit: scratch too small";
  Array.blit t.oe_data.(edge_id) 0 ids 0 n;
  Array.blit t.oe_dem.(edge_id) 0 dem 0 n;
  Array.blit t.oe_size.(edge_id) 0 size 0 n;
  n

(* Append the ids on [edges] to the buffer's prefix [0, n); a top-level
   loop, so a call builds no closure. *)
let rec blit_edge_ids t into n = function
  | [] -> n
  | e :: rest ->
      if e < 0 || e >= Array.length t.oe_len then
        invalid_arg "Net_state.edge_flow_ids: edge id";
      touch t e;
      let k = t.oe_len.(e) in
      reserve into ~keep:n (n + k);
      Array.blit t.oe_data.(e) 0 !into n k;
      blit_edge_ids t into (n + k) rest

let edge_flow_ids t edges ~into = sort_uniq !into (blit_edge_ids t into 0 edges)

let peek_flow t id = Hashtbl.find t.flows id

let flows_through_node t v =
  let acc = ref [] in
  Hashtbl.iter
    (fun id placed -> if Path.mentions_node placed.path v then acc := id :: !acc)
    t.flows;
  List.map (fun id -> Hashtbl.find t.flows id) (List.sort compare !acc)

(* The node of host index [h], one endpoint at a time: a pair would be
   a tuple allocated on every candidate lookup and placement. *)
let[@inline] host_node t h =
  let hosts = t.topo.Topology.hosts in
  if h < 0 || h >= Array.length hosts then
    invalid_arg "Net_state.endpoints: host index out of range";
  Array.unsafe_get hosts h

(* [Flow_record.demand_mbps], inlined: the call would return a boxed
   float across the module boundary (the dev profile compiles with
   [-opaque], so nothing is inlined across modules), while here the
   demand stays in a register. *)
let[@inline] demand_of (r : Flow_record.t) = r.size_mbit /. r.duration_s

let memo_key t ~src ~dst = (src * Graph.node_count (graph t)) + dst

(* The unfiltered interior set of a switch pair is a pure function of
   the topology; memoise it so repeated probes skip the path search.
   Domain snapshots ([memo_ro]) read the shared table but never write
   it — [Probe_pool.create] pre-warms every switch pair before taking
   them, so worker misses are a cold fallback, not the norm. *)
let interiors t ~src ~dst =
  let key = memo_key t ~src ~dst in
  match Hashtbl.find t.paths_memo key with
  | ps -> ps
  | exception Not_found ->
      let ps = t.topo.Topology.interior_paths ~src ~dst in
      if not t.memo_ro then Hashtbl.add t.paths_memo key ps;
      ps

type candidates = { up : int; down : int; interior : int array array }

let no_candidates = { up = -1; down = -1; interior = [||] }

let interior_enabled t ids =
  let n = Array.length ids in
  let i = ref 0 in
  while !i < n && not t.disabled.(Array.unsafe_get ids !i) do
    incr i
  done;
  !i >= n

(* The enabled interiors, in rank order, straight into their array. *)
let enabled_interiors t all =
  let n = ref 0 in
  for i = 0 to Array.length all - 1 do
    if interior_enabled t (Array.unsafe_get all i) then incr n
  done;
  let out = Array.make !n [||] in
  let j = ref 0 in
  for i = 0 to Array.length all - 1 do
    let ids = Array.unsafe_get all i in
    if interior_enabled t ids then begin
      out.(!j) <- ids;
      incr j
    end
  done;
  out

let candidates t record =
  Nu_obs.Counters.incr Nu_obs.Counters.Path_enumerations;
  let src = host_node t record.Flow_record.src in
  let dst = host_node t record.Flow_record.dst in
  if src = dst then no_candidates
  else begin
    let topo = t.topo in
    let up = topo.Topology.up.(src) and down = topo.Topology.down.(dst) in
    let all =
      interiors t ~src:topo.Topology.attach.(src) ~dst:topo.Topology.attach.(dst)
    in
    (* With no edge down — the overwhelmingly common case — the filter is
       the identity; skip it. A disabled access hop empties the set.
       Probes need no per-edge record of the disabled reads either way:
       any disable/enable bumps [disabled_epoch], which the stale-plan
       check reads wholesale. *)
    if t.disabled_n = 0 then { up; down; interior = all }
    else if t.disabled.(up) || t.disabled.(down) then
      { up; down; interior = [||] }
    else { up; down; interior = enabled_interiors t all }
  end

let candidate_count c = Array.length c.interior
let fold_hops c i ~init ~f =
  let mid = c.interior.(i) in
  let acc = ref (f init c.up) in
  for j = 0 to Array.length mid - 1 do
    acc := f !acc (Array.unsafe_get mid j)
  done;
  f !acc c.down

let candidate_path t c i =
  let mid = c.interior.(i) in
  let n = Array.length mid in
  let ids = Array.make (n + 2) c.up in
  Array.blit mid 0 ids 1 n;
  ids.(n + 1) <- c.down;
  Path.of_ids (graph t) ids

let candidate_is c i path =
  let ids = Path.hop_ids path and mid = c.interior.(i) in
  let n = Array.length mid in
  Array.length ids = n + 2
  && ids.(0) = c.up
  && ids.(n + 1) = c.down
  &&
  let j = ref 0 in
  while !j < n && ids.(!j + 1) = mid.(!j) do
    incr j
  done;
  !j >= n

let warm_all_paths t =
  (* Populate the memo for every ordered pair of attachment switches,
     without counting the enumerations — this is a cache fill, not
     planning work. Called once on the main domain before probe
     snapshots start sharing the memo read-only. *)
  if not t.memo_ro then begin
    let attach = t.topo.Topology.attach in
    let sws =
      List.sort_uniq compare
        (Array.to_list (Array.map (fun h -> attach.(h)) t.topo.Topology.hosts))
    in
    List.iter
      (fun src -> List.iter (fun dst -> ignore (interiors t ~src ~dst)) sws)
      sws
  end

(* One edge of a feasibility check: recorded in an open probe's read
   set, enabled, and with room for the demand. *)
let[@inline] edge_fits t e ~demand =
  touch t e;
  (not (Array.unsafe_get t.disabled e)) && Array.unsafe_get t.residual e >= demand

(* A loop, not a local recursive function: that would be a closure
   allocated per call. *)
let interior_fits t ids ~demand =
  let n = Array.length ids in
  let i = ref 0 in
  while !i < n && edge_fits t (Array.unsafe_get ids !i) ~demand do
    incr i
  done;
  !i >= n

let candidate_feasible t c i ~demand =
  edge_fits t c.up ~demand
  && interior_fits t c.interior.(i) ~demand
  && edge_fits t c.down ~demand

(* The one first-fit scan. Each access hop is checked at most once per
   call, when the first candidate that needs it reaches it, so the edges
   read — and so the probe read set — are exactly those of checking
   every eligible candidate's full path in turn: [up] before any
   interior edge, [down] only after a whole interior fits. Once [up]
   fails no candidate can fit, and no further edge is read. Local refs
   and no closure: a call allocates nothing. *)
let first_feasible t c ~demand ~eligible ~from =
  let n = Array.length c.interior in
  (* Access-hop states: 0 unread, 1 fits, 2 does not. *)
  let up_st = ref 0 and down_st = ref 0 in
  let found = ref (-1) and i = ref (if from < 0 then 0 else from) in
  while !found < 0 && !i < n do
    let k = !i in
    i := k + 1;
    if eligible k then begin
      if !up_st = 0 then up_st := if edge_fits t c.up ~demand then 1 else 2;
      if !up_st = 2 then i := n
      else if interior_fits t (Array.unsafe_get c.interior k) ~demand then begin
        if !down_st = 0 then
          down_st := if edge_fits t c.down ~demand then 1 else 2;
        if !down_st = 1 then found := k
      end
    end
  done;
  !found

let congested_links t path ~demand =
  let ids = Path.hop_ids path in
  let g = graph t in
  let acc = ref [] in
  for i = Array.length ids - 1 downto 0 do
    let e = Array.unsafe_get ids i in
    touch t e;
    if Array.unsafe_get t.residual e < demand then acc := Graph.edge g e :: !acc
  done;
  !acc

let capacity_gap t (e : Graph.edge) ~demand =
  touch t e.id;
  demand -. t.residual.(e.id)

(* [Stdlib.max 0.0 (demand -. residual)] for one hop, with the
   polymorphic test spelled for floats (a NaN gap stays NaN, -0.0
   becomes 0.0), so the sum stays unboxed. *)
let[@inline] hop_gap t e ~demand =
  touch t e;
  let d = demand -. Array.unsafe_get t.residual e in
  if 0.0 >= d then 0.0 else d

let candidate_gap t c i ~demand ~into =
  let mid = c.interior.(i) in
  let acc = ref (0.0 +. hop_gap t c.up ~demand) in
  for j = 0 to Array.length mid - 1 do
    acc := !acc +. hop_gap t (Array.unsafe_get mid j) ~demand
  done;
  into.(i) <- !acc +. hop_gap t c.down ~demand

type place_error = Duplicate_flow | Congested of Graph.edge list

let occupy t placed =
  let demand = demand_of placed.record in
  let size = placed.record.Flow_record.size_mbit in
  let fid = placed.record.Flow_record.id in
  let ids = Path.hop_ids placed.path in
  for i = 0 to Array.length ids - 1 do
    let e = Array.unsafe_get ids i in
    apply_residual t e (-.demand);
    on_edge_put t e fid demand size
  done

let release t placed =
  let demand = demand_of placed.record in
  let fid = placed.record.Flow_record.id in
  let ids = Path.hop_ids placed.path in
  for i = 0 to Array.length ids - 1 do
    let e = Array.unsafe_get ids i in
    apply_residual t e demand;
    on_edge_del t e fid
  done

let disabled_links t path =
  let ids = Path.hop_ids path in
  let g = graph t in
  let acc = ref [] in
  for i = Array.length ids - 1 downto 0 do
    let e = Array.unsafe_get ids i in
    if Array.unsafe_get t.disabled e then acc := Graph.edge g e :: !acc
  done;
  !acc

(* Every hop enabled and with room: exactly when {!disabled_links} and
   {!congested_links} are both empty. Like [congested_links], it records
   every hop in an open probe's read set. Inlined, so the demand stays
   unboxed on the success path. *)
let[@inline] path_clear t ids ~demand =
  let clear = ref true in
  for i = 0 to Array.length ids - 1 do
    let e = Array.unsafe_get ids i in
    touch t e;
    if Array.unsafe_get t.disabled e || Array.unsafe_get t.residual e < demand
    then clear := false
  done;
  !clear

let place t record path =
  if Hashtbl.mem t.flows record.Flow_record.id then Error Duplicate_flow
  else begin
    let src = host_node t record.src in
    let dst = host_node t record.dst in
    if Path.src path <> src || Path.dst path <> dst then
      invalid_arg "Net_state.place: path does not connect the flow endpoints";
    let demand = demand_of record in
    if path_clear t (Path.hop_ids path) ~demand then begin
      (* The only allocations: the binding and its table entry. *)
      let placed = { record; path } in
      flow_put t record.id placed;
      occupy t placed;
      Ok ()
    end
    else
      Error
        (Congested (disabled_links t path @ congested_links t path ~demand))
  end

let remove t id =
  match Hashtbl.find t.flows id with
  | exception Not_found -> Error `Not_found
  | placed ->
      flow_del t id placed;
      release t placed;
      Ok placed

(* Feasibility of a reroute is judged with the flow's own usage
   released — computed arithmetically (residual +. demand on edges the
   old path shares with the new one) rather than by physically releasing
   and restoring the placement, so a rejected attempt costs no journal
   or flow-table traffic. The additions match what release used to
   apply, keeping the comparisons bit-identical. [reroute_avail] is one
   hop's room, recorded in an open probe's read set. *)
let[@inline] reroute_avail t old e ~demand =
  touch t e;
  let r = Array.unsafe_get t.residual e in
  if Path.mentions_edge old e then r +. demand else r

(* One hop of the check: enabled (unless [admit_disabled]), and with
   room for [demand] on top of [old]'s own share. *)
let[@inline] reroute_hop_fits t ~admit_disabled old e ~demand =
  (not (reroute_avail t old e ~demand < demand))
  && (admit_disabled || not (Array.unsafe_get t.disabled e))

(* Why a reroute onto [new_path] failed: its disabled hops, then its
   congested ones, each in path order. Built only on failure, and it
   computes the demand itself: passing [reroute]'s would box it on every
   call. *)
let reroute_blocked t ~admit_disabled placed new_path =
  let demand = demand_of placed.record in
  let dead = if admit_disabled then [] else disabled_links t new_path in
  let ids = Path.hop_ids new_path in
  let g = graph t in
  let acc = ref [] in
  for i = Array.length ids - 1 downto 0 do
    let e = Array.unsafe_get ids i in
    if reroute_avail t placed.path e ~demand < demand then
      acc := Graph.edge g e :: !acc
  done;
  dead @ !acc

(* Every hop is checked, and so recorded in an open probe's read set,
   even after one fails: the read set is the one a walk building the
   blocked list records. *)
let reroute ?(admit_disabled = false) t id new_path =
  match Hashtbl.find t.flows id with
  | exception Not_found -> invalid_arg "Net_state.reroute: flow not placed"
  | placed ->
      let demand = demand_of placed.record in
      let ids = Path.hop_ids new_path in
      let clear = ref true in
      for i = 0 to Array.length ids - 1 do
        if
          not
            (reroute_hop_fits t ~admit_disabled placed.path
               (Array.unsafe_get ids i) ~demand)
        then clear := false
      done;
      if not !clear then
        Error
          (Congested (reroute_blocked t ~admit_disabled placed new_path))
      else begin
        let src = host_node t placed.record.src in
        let dst = host_node t placed.record.dst in
        if Path.src new_path <> src || Path.dst new_path <> dst then
          invalid_arg "Net_state.reroute: path does not connect endpoints"
        else begin
          flow_del t id placed;
          release t placed;
          let placed' = { placed with path = new_path } in
          flow_put t id placed';
          occupy t placed';
          Ok placed.path
        end
      end

let candidate_reroutable t placed c i =
  let demand = demand_of placed.record and old = placed.path in
  let mid = c.interior.(i) in
  let fits = ref (reroute_hop_fits t ~admit_disabled:false old c.up ~demand) in
  for j = 0 to Array.length mid - 1 do
    if
      not
        (reroute_hop_fits t ~admit_disabled:false old (Array.unsafe_get mid j)
           ~demand)
    then fits := false
  done;
  reroute_hop_fits t ~admit_disabled:false old c.down ~demand && !fits

(* ------------------------------------------------------------------ *)
(* Structural sweeps. Both share one proof: if every placed flow is
   found on every hop of its path with its demand cached, and the
   on-edge sets hold exactly as many entries as the paths have hops,
   then (paths being loop-free) the sets equal the paths — no ghost,
   stray or duplicate entry can hide. Residuals are then recomputed per
   edge and compared. The first error wins. On a clean state neither
   allocates more than its error cell (and the full sweep its hop
   counter and iteration closure): the expected residuals go to
   net-owned scratch, and capacities and demands are read unboxed. *)

let fail err fmt =
  Printf.ksprintf (fun msg -> if !err = None then err := Some msg) fmt

(* Per-flow half: the flow sits under its own key, and each hop's set
   holds it with the demand it places. *)
let audit_flow t err id placed =
  if placed.record.Flow_record.id <> id then
    fail err "flow %d stored under wrong key" id;
  let demand = demand_of placed.record in
  let ids = Path.hop_ids placed.path in
  for i = 0 to Array.length ids - 1 do
    let e = Array.unsafe_get ids i in
    let j = oe_index t e id in
    if j < 0 then fail err "flow %d missing from edge %d" id e
    else if t.oe_dem.(e).(j) <> demand then
      fail err "edge %d caches demand %g for flow %d, placed at %g" e
        t.oe_dem.(e).(j) id demand
  done

(* Names the entry behind an entry/hop count mismatch. Only runs when
   the counts disagree, so its hashtable lookups stay off the clean
   path. *)
let audit_entries t err =
  Array.iteri
    (fun e data ->
      for i = 0 to t.oe_len.(e) - 1 do
        let fid = data.(i) in
        match Hashtbl.find_opt t.flows fid with
        | None -> fail err "edge %d lists ghost flow %d" e fid
        | Some placed ->
            if not (Path.mentions_edge placed.path e) then
              fail err "edge %d lists flow %d not crossing it" e fid
            else if oe_index t e fid > i then
              fail err "edge %d lists flow %d twice" e fid
      done)
    t.oe_data

(* The expected-residual scratch, one slot per edge. *)
let expected_scratch t =
  let n = Array.length t.residual in
  if Array.length t.expected <> n then t.expected <- Array.make n 0.0;
  t.expected

(* Whole-net half: negative residuals to [overdrawn], residuals against
   [expected], the entry count and the running hop count against
   [hops], the fabric-utilisation fold, the transaction depth and the
   committed log's freed prefix. *)
let audit_net t err ~overdrawn acc ~expected ~hops =
  for id = 0 to Array.length expected - 1 do
    let r = t.residual.(id) and expect = expected.(id) in
    if r < -1e-6 then overdrawn acc ~edge:id ~residual:r;
    if expect < -1e-6 then fail err "edge %d oversubscribed" id
    else if abs_float (expect -. r) > 1e-6 then
      fail err "edge %d residual %.6f, expected %.6f" id r expect
  done;
  let entries = ref 0 in
  for e = 0 to Array.length t.oe_len - 1 do
    entries := !entries + t.oe_len.(e)
  done;
  if !entries <> hops then begin
    audit_entries t err;
    fail err "on-edge sets hold %d entries, paths have %d hops" !entries hops
  end;
  if t.hops <> hops then
    fail err "running hop count %d, paths have %d hops" t.hops hops;
  if t.fabric_n > 0 then begin
    (* Ascending edge id: the order of [t.fabric]. *)
    let folded = ref 0.0 in
    for id = 0 to Array.length t.is_fabric - 1 do
      let cap = t.capacity.(id) in
      if t.is_fabric.(id) && cap > 0.0 then
        folded := !folded +. ((cap -. t.residual.(id)) /. cap)
    done;
    if abs_float (!folded -. t.util.(0)) > 1e-6 then
      fail err "fabric util sum %.9f, expected %.9f" t.util.(0) !folded
  end;
  if t.txn_n > 0 then fail err "transaction left open";
  let held = passed t in
  if held > 0 then fail err "log holds %d ops every cursor has passed" held;
  match !err with Some msg -> Error msg | None -> Ok ()

let sweep t ~blackhole ~overdrawn acc =
  let expected = expected_scratch t in
  for id = 0 to Array.length expected - 1 do
    expected.(id) <- t.capacity.(id) -. t.degraded.(id)
  done;
  let err = ref None in
  let hops = ref 0 in
  Hashtbl.iter
    (fun id placed ->
      audit_flow t err id placed;
      let demand = demand_of placed.record in
      let ids = Path.hop_ids placed.path in
      hops := !hops + Array.length ids;
      for i = 0 to Array.length ids - 1 do
        let e = Array.unsafe_get ids i in
        expected.(e) <- expected.(e) -. demand;
        if t.disabled.(e) then
          blackhole acc ~flow:placed.record.Flow_record.id ~edge:e
      done)
    t.flows;
  audit_net t err ~overdrawn acc ~expected ~hops:!hops

let sweep_changed t ~flows ~n ~blackhole ~overdrawn acc =
  let err = ref None in
  for k = 0 to n - 1 do
    let id = flows.(k) in
    match Hashtbl.find t.flows id with
    | placed -> audit_flow t err id placed
    | exception Not_found -> ()
  done;
  let expected = expected_scratch t in
  for e = 0 to Array.length expected - 1 do
    let dem = t.oe_dem.(e) in
    let r = ref (t.capacity.(e) -. t.degraded.(e)) in
    for i = 0 to t.oe_len.(e) - 1 do
      r := !r -. Array.unsafe_get dem i
    done;
    expected.(e) <- !r
  done;
  if t.disabled_n > 0 then
    for e = 0 to Array.length t.disabled - 1 do
      if t.disabled.(e) then
        for i = 0 to t.oe_len.(e) - 1 do
          blackhole acc ~flow:t.oe_data.(e).(i) ~edge:e
        done
    done;
  audit_net t err ~overdrawn acc ~expected ~hops:t.hops

let invariants_ok t =
  sweep t
    ~blackhole:(fun () ~flow:_ ~edge:_ -> ())
    ~overdrawn:(fun () ~edge:_ ~residual:_ -> ())
    ()

let pp ppf t =
  Format.fprintf ppf "net[%s: %d flows, mean util %.1f%%, max util %.1f%%]"
    t.topo.Topology.name (flow_count t)
    (100.0 *. mean_utilization t)
    (100.0 *. max_utilization t)
