type placed = { record : Flow_record.t; path : Path.t }

(* Undo-journal entry tags. The journal is a flat struct-of-arrays log
   (an [ops] buffer) instead of a variant list: a probe writes
   thousands of entries and the list cells plus boxed floats dominated
   minor-heap traffic. Residual entries
   store the *applied* delta and are undone by applying the opposite
   delta — the exact arithmetic the symmetric plan/revert pair used to
   perform, so rollback is bit-compatible with the historical
   revert-based probes. Flow-table entries store the previous binding
   in the [obj] slot. *)
let tag_residual = 0 (* a = edge id, f = applied delta *)

let tag_flow_put = 1 (* a = flow id, obj = previous binding *)
let tag_flow_del = 2 (* a = flow id, obj = removed binding *)
let tag_on_put = 3 (* a = edge id, b = flow id (was absent) *)
let tag_on_del = 4 (* a = edge id, b = flow id (was present) *)
let tag_disabled_t = 6 (* a = edge id, previous flag = true *)
let tag_disabled_f = 7 (* a = edge id, previous flag = false *)
let tag_degraded = 8 (* a = edge id, f = applied degradation delta *)

(* Committed-log opcodes. Unlike journal tags these describe the
   *forward* effect, with every operand needed to re-apply it to an
   identical state: a mirror replays them through the same primitives,
   so a del's scan resolves identically on both sides. A del always
   finds its flow: [release] deletes only the hops of a placed flow's
   simple path. A put is never a duplicate: [place] rejects a placed id,
   [reroute] releases the old path before it occupies the new one, and a
   mirror replays only puts that were new at the source, so an on-edge
   put appends without a membership scan. The structural sweep's
   entries = hops check catches any put that breaks this. *)
let rt_residual = 0 (* a = edge id, f = delta *)
let rt_on_put = 1 (* a = edge id, b = flow id, f = demand, g = size *)
let rt_on_del = 2 (* a = edge id, b = flow id *)
let rt_flow_put = 3 (* a = flow id, obj = new binding *)
let rt_flow_del = 4 (* a = flow id *)
let rt_disable = 5 (* a = edge id (set the disabled flag) *)
let rt_enable = 6 (* a = edge id (clear the disabled flag) *)
let rt_degraded = 7 (* a = edge id, f = ledger delta *)

(* A flat op buffer: six parallel columns (tag / int operands / float
   operands / binding slot), used prefix [0, n). The undo journal and
   the committed log are both one. The [obj] slot is only meaningful
   for flow-table ops; other pushes leave it stale. *)
type ops = {
  mutable tag : int array;
  mutable a : int array;
  mutable b : int array;
  mutable f : float array;
  mutable g : float array;
  mutable obj : placed option array;
  mutable n : int;
}

(* A reader's position in the committed log: the absolute count of ops
   committed before the first one it has not consumed. *)
type cursor = { mutable pos : int; bounded : bool }

type t = {
  topo : Topology.t;
  residual : float array;  (* indexed by edge id *)
  flows : (int, placed) Hashtbl.t;  (* flow id -> placement *)
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
  mutable util_sum : float;  (* running sum of fabric used/capacity *)
  mutable util_comp : float;  (* Kahan compensation for util_sum *)
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
     is discarded before commit-time conversion). Each reader consumes
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
    obj = Array.make cap None;
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
  o.obj <- ext o.obj None

let[@inline] push o tag a b f g =
  if o.n = Array.length o.tag then grow o;
  let i = o.n in
  Array.unsafe_set o.tag i tag;
  Array.unsafe_set o.a i a;
  Array.unsafe_set o.b i b;
  Array.unsafe_set o.f i f;
  Array.unsafe_set o.g i g;
  o.n <- i + 1

let[@inline] push_obj o tag a obj =
  push o tag a 0 0.0 0.0;
  Array.unsafe_set o.obj (o.n - 1) obj

let journal_cap0 = 256

let create topo =
  let g = topo.Topology.graph in
  (* Force the CSR build while still single-domain: per-domain probe
     snapshots share the graph, and the lazy rebuild is not
     domain-safe. *)
  Graph.freeze g;
  let n_edges = Graph.edge_count g in
  let residual = Array.init n_edges (fun id -> Graph.capacity g id) in
  let fabric = compute_fabric topo in
  let is_fabric = Array.make n_edges false in
  let inv_cap = Array.make n_edges 0.0 in
  List.iter
    (fun id ->
      is_fabric.(id) <- true;
      let cap = Graph.capacity g id in
      if cap > 0.0 then inv_cap.(id) <- 1.0 /. cap)
    fabric;
  {
    topo;
    residual;
    flows = Hashtbl.create 1024;
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
    util_sum = 0.0;
    util_comp = 0.0;
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
    residual = Array.copy t.residual;
    flows;
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
    util_sum = t.util_sum;
    util_comp = t.util_comp;
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
    fz_util_sum = t.util_sum;
    fz_util_comp = t.util_comp;
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

let oe_append t e fid dem size =
  let n = t.oe_len.(e) in
  if n = Array.length t.oe_data.(e) then begin
    (* [max 8] also covers exact-size (possibly empty) arrays from
       {!copy_into}'s trimmed per-edge copies. *)
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
  end;
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
  t.util_sum <- fz.fz_util_sum;
  t.util_comp <- fz.fz_util_comp;
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

(* Ops logged since absolute position [pos] that change a flow's
   binding, oldest first. *)
let iter_flow_ops t pos f =
  let lo = t.log in
  for i = pos - t.log_base to lo.n - 1 do
    let tag = lo.tag.(i) in
    if tag = rt_flow_put || tag = rt_flow_del then f lo.a.(i)
  done

let count_flow_ops t pos =
  let k = ref 0 in
  iter_flow_ops t pos (fun _ -> incr k);
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
    Array.fill lo.obj rest cut None;
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

let[@inline] log_op t tag a b f g =
  if logging t && (t.log.n < Array.length t.log.tag || make_room t) then
    push t.log tag a b f g

let[@inline] log_obj t tag a p =
  if logging t && (t.log.n < Array.length t.log.tag || make_room t) then
    push_obj t.log tag a (Some p)

(* Kahan-compensated accumulation keeps the running fabric-utilisation
   sum accurate across millions of occupy/release pairs. *)
let[@inline] kadd t x =
  let y = x -. t.util_comp in
  let s = t.util_sum +. y in
  t.util_comp <- (s -. t.util_sum) -. y;
  t.util_sum <- s

(* Every residual change funnels through here: journaling, version
   stamping (deferred to commit while inside a transaction), probe
   tracking and the incremental utilisation sum. *)
let[@inline] apply_residual t e delta =
  touch t e;
  if journal_active t then push t.journal tag_residual e 0 delta 0.0
  else begin
    t.versions.(e) <- t.versions.(e) + 1;
    log_op t rt_residual e 0 delta 0.0
  end;
  t.residual.(e) <- t.residual.(e) +. delta;
  (* used = capacity - residual, so utilisation moves opposite to the
     residual delta. *)
  if Array.unsafe_get t.is_fabric e then
    kadd t (-.(delta *. Array.unsafe_get t.inv_cap e))

(* On-edge journal entries carry the flow's demand and size, so undo
   can restore the parallel arrays. [fid] is not on [e] (see the
   committed-log opcodes). *)
let[@inline] on_edge_put t e fid dem size =
  if journal_active t then push t.journal tag_on_put e fid dem size
  else log_op t rt_on_put e fid dem size;
  oe_append t e fid dem size

(* [fid] is on [e]: [release] deletes only the hops of a placed flow's
   simple path, and a mirror replays only dels that found their flow at
   the source. An absent flow fails the array bounds check. *)
let[@inline] on_edge_del t e fid =
  let i = oe_index t e fid in
  if journal_active t then
    push t.journal tag_on_del e fid t.oe_dem.(e).(i) t.oe_size.(e).(i)
  else log_op t rt_on_del e fid 0.0 0.0;
  oe_remove_at t e i

let[@inline] flow_put t id p =
  if journal_active t then
    push_obj t.journal tag_flow_put id (Hashtbl.find_opt t.flows id)
  else log_obj t rt_flow_put id p;
  Hashtbl.replace t.flows id p

let[@inline] flow_del t id p =
  if journal_active t then push_obj t.journal tag_flow_del id (Some p)
  else log_op t rt_flow_del id 0 0.0 0.0;
  Hashtbl.remove t.flows id

(* Undo journal entry [i]; clears its binding slot. *)
let undo t i =
  let j = t.journal in
  let tag = j.tag.(i) and a = j.a.(i) in
  if tag = tag_residual then begin
    let delta = j.f.(i) in
    t.residual.(a) <- t.residual.(a) -. delta;
    if t.is_fabric.(a) then kadd t (delta *. t.inv_cap.(a))
  end
  else if tag = tag_flow_put then begin
    (match j.obj.(i) with
    | None -> Hashtbl.remove t.flows a
    | Some p -> Hashtbl.replace t.flows a p);
    j.obj.(i) <- None
  end
  else if tag = tag_flow_del then begin
    (match j.obj.(i) with
    | Some p -> Hashtbl.replace t.flows a p
    | None -> assert false);
    j.obj.(i) <- None
  end
  else if tag = tag_on_put then begin
    let k = oe_index t a j.b.(i) in
    assert (k >= 0);
    oe_remove_at t a k
  end
  else if tag = tag_on_del then oe_append t a j.b.(i) j.f.(i) j.g.(i)
  else if tag = tag_disabled_t || tag = tag_disabled_f then begin
    let prev = tag = tag_disabled_t in
    t.disabled.(a) <- prev;
    t.disabled_n <- t.disabled_n + (if prev then 1 else -1)
  end
  else if tag = tag_degraded then t.degraded.(a) <- t.degraded.(a) -. j.f.(i)
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

(* Convert the surviving journal — exactly the op stream of the
   committing transaction, inner rollbacks already excised — into log
   entries. Flow-table entries journal the *previous* binding, so the
   new one is read off the live table: only the final binding per id
   matters to a replayer (no logged op in between reads the table), and
   an [rt_flow_del] of an absent id replays as a no-op. *)
let journal_to_log t =
  let j = t.journal in
  for i = 0 to j.n - 1 do
    let tag = j.tag.(i) and a = j.a.(i) in
    if tag = tag_residual then log_op t rt_residual a 0 j.f.(i) 0.0
    else if tag = tag_on_put then log_op t rt_on_put a j.b.(i) j.f.(i) j.g.(i)
    else if tag = tag_on_del then log_op t rt_on_del a j.b.(i) 0.0 0.0
    else if tag = tag_flow_put || tag = tag_flow_del then begin
      match Hashtbl.find_opt t.flows a with
      | Some p -> log_obj t rt_flow_put a p
      | None -> log_op t rt_flow_del a 0 0.0 0.0
    end
    else if tag = tag_disabled_t then log_op t rt_enable a 0 0.0 0.0
    else if tag = tag_disabled_f then log_op t rt_disable a 0 0.0 0.0
    else if tag = tag_degraded then log_op t rt_degraded a 0 j.f.(i) 0.0
    else assert false
  done

let commit t =
  if t.txn_n = 0 then invalid_arg "Net_state.commit: no open transaction"
  else begin
    t.txn_n <- t.txn_n - 1;
    if t.txn_n = 0 then begin
      if logging t then journal_to_log t;
      (* Outermost commit: the journaled writes become permanent, so
         stamp every edge they touched (once per entry, matching the
         per-write stamping outside transactions). Inner commits just
         merge into the enclosing transaction. *)
      Nu_obs.Counters.incr Nu_obs.Counters.Txn_commits;
      let j = t.journal in
      for i = 0 to j.n - 1 do
        let tag = j.tag.(i) in
        if
          tag = tag_residual || tag = tag_disabled_t || tag = tag_disabled_f
        then begin
          let e = j.a.(i) in
          t.versions.(e) <- t.versions.(e) + 1
        end
        (* tag_degraded rides on its paired residual entry for stamping. *)
        else if tag = tag_flow_put || tag = tag_flow_del then j.obj.(i) <- None
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

(* Ascending, each id once: a flow written many times is revisited
   once. Sorts [ids] in place. *)
let dedup_sorted ids =
  Array.sort Int.compare ids;
  let n = ref 0 in
  Array.iteri
    (fun i id ->
      if i = 0 || id <> ids.(!n - 1) then begin
        ids.(!n) <- id;
        incr n
      end)
    ids;
  Array.sub ids 0 !n

let drain_flow_ids t c =
  if not (List.memq c t.readers) then None
  else begin
    let ids = ref [] in
    iter_flow_ops t c.pos (fun id -> ids := id :: !ids);
    advance t c;
    Some (dedup_sorted (Array.of_list !ids))
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
    if journal_active t then
      push t.journal
        (if t.disabled.(id) then tag_disabled_t else tag_disabled_f)
        id 0 0.0 0.0
    else begin
      t.versions.(id) <- t.versions.(id) + 1;
      log_op t (if v then rt_disable else rt_enable) id 0 0.0 0.0
    end;
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
    if journal_active t then push t.journal tag_degraded id 0 lost_mbps 0.0
    else log_op t rt_degraded id 0 lost_mbps 0.0;
    t.degraded.(id) <- t.degraded.(id) +. lost_mbps
  end

let restore_edge_capacity t id =
  check_edge_id t id "restore_edge_capacity";
  let lost = t.degraded.(id) in
  if lost > 0.0 then begin
    apply_residual t id lost;
    if journal_active t then push t.journal tag_degraded id 0 (-.lost) 0.0
    else log_op t rt_degraded id 0 (-.lost) 0.0;
    t.degraded.(id) <- 0.0
  end

(* Replay a drained batch against a mirror that was bit-identical to
   the source when the batch's cursor opened. Ops funnel through the
   same primitives the source executed, so membership scans, the Kahan
   utilisation sum and swap-remove order all evolve exactly as they did
   (or would have, for ops that only materialised at commit) on the
   source. The mirror must be quiescent: no open transaction, no active
   probe, no cursor of its own. *)
let apply_batch t (o : batch) =
  if t.txn_n > 0 then invalid_arg "Net_state.apply_batch: open transaction";
  if t.watch_on then invalid_arg "Net_state.apply_batch: active probe";
  if logging t then invalid_arg "Net_state.apply_batch: cursor open";
  for i = 0 to o.n - 1 do
    let tag = o.tag.(i) and a = o.a.(i) in
    if tag = rt_residual then apply_residual t a o.f.(i)
    else if tag = rt_on_put then on_edge_put t a o.b.(i) o.f.(i) o.g.(i)
    else if tag = rt_on_del then on_edge_del t a o.b.(i)
    else if tag = rt_flow_put then begin
      match o.obj.(i) with
      | Some p -> flow_put t a p
      | None -> assert false
    end
    else if tag = rt_flow_del then Hashtbl.remove t.flows a
    else if tag = rt_disable then set_disabled t a true
    else if tag = rt_enable then set_disabled t a false
    else if tag = rt_degraded then t.degraded.(a) <- t.degraded.(a) +. o.f.(i)
    else assert false
  done

let fabric_edges t = t.fabric

let mean_fabric_utilization t =
  (* Maintained incrementally in occupy/release: O(1), where the fold
     over fabric edge ids was O(edges) per call. *)
  if t.fabric_n = 0 then 0.0
  else
    let v = t.util_sum /. float_of_int t.fabric_n in
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

let peek_flow t id = Hashtbl.find_opt t.flows id

let flows_through_node t v =
  let acc = ref [] in
  Hashtbl.iter
    (fun id placed -> if Path.mentions_node placed.path v then acc := id :: !acc)
    t.flows;
  List.map (fun id -> Hashtbl.find t.flows id) (List.sort compare !acc)

let endpoints t (record : Flow_record.t) =
  let hosts = t.topo.Topology.hosts in
  let n = Array.length hosts in
  if record.src < 0 || record.src >= n || record.dst < 0 || record.dst >= n
  then invalid_arg "Net_state.endpoints: host index out of range";
  (hosts.(record.src), hosts.(record.dst))

let memo_key t ~src ~dst = (src * Graph.node_count (graph t)) + dst

(* The unfiltered interior set of a switch pair is a pure function of
   the topology; memoise it so repeated probes skip the path search.
   Domain snapshots ([memo_ro]) read the shared table but never write
   it — [Probe_pool.create] pre-warms every switch pair before taking
   them, so worker misses are a cold fallback, not the norm. *)
let interiors t ~src ~dst =
  let key = memo_key t ~src ~dst in
  match Hashtbl.find_opt t.paths_memo key with
  | Some ps -> ps
  | None ->
      let ps = t.topo.Topology.interior_paths ~src ~dst in
      if not t.memo_ro then Hashtbl.add t.paths_memo key ps;
      ps

type candidates = { up : int; down : int; interior : int array array }

let no_candidates = { up = -1; down = -1; interior = [||] }

let interior_enabled t ids =
  let n = Array.length ids in
  let rec go i =
    i >= n || ((not t.disabled.(Array.unsafe_get ids i)) && go (i + 1))
  in
  go 0

let candidates t record =
  Nu_obs.Counters.incr Nu_obs.Counters.Path_enumerations;
  let src, dst = endpoints t record in
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
    else
      {
        up;
        down;
        interior =
          Array.of_list (List.filter (interior_enabled t) (Array.to_list all));
      }
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
  let rec go j = j >= n || (ids.(j + 1) = mid.(j) && go (j + 1)) in
  go 0

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

let interior_fits t ids ~demand =
  let n = Array.length ids in
  let rec go i = i >= n || (edge_fits t (Array.unsafe_get ids i) ~demand && go (i + 1)) in
  go 0

let candidate_feasible t c i ~demand =
  edge_fits t c.up ~demand
  && interior_fits t c.interior.(i) ~demand
  && edge_fits t c.down ~demand

(* Each access hop is checked once per scan, when the first candidate
   that needs it reaches it, so the edges read — and so the probe read
   set — are exactly those of checking every candidate's full path in
   turn: [up] before any interior edge, [down] only after a whole
   interior fits. *)
let iter_feasible t c ~demand ~eligible f =
  let n = Array.length c.interior in
  let up_st = ref 0 and down_st = ref 0 in
  let access e st =
    if !st = 0 then st := if edge_fits t e ~demand then 1 else 2;
    !st = 1
  in
  let rec go i =
    if i < n then
      if
        eligible i
        && access c.up up_st
        && interior_fits t c.interior.(i) ~demand
        && access c.down down_st
      then (if f i then go (i + 1))
      else go (i + 1)
  in
  go 0

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

type place_error = Duplicate_flow | Congested of Graph.edge list

let occupy t placed =
  let demand = Flow_record.demand_mbps placed.record in
  let size = placed.record.Flow_record.size_mbit in
  let fid = placed.record.Flow_record.id in
  let ids = Path.hop_ids placed.path in
  for i = 0 to Array.length ids - 1 do
    let e = Array.unsafe_get ids i in
    apply_residual t e (-.demand);
    on_edge_put t e fid demand size
  done

let release t placed =
  let demand = Flow_record.demand_mbps placed.record in
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

let place t record path =
  if Hashtbl.mem t.flows record.Flow_record.id then Error Duplicate_flow
  else begin
    let src, dst = endpoints t record in
    if Path.src path <> src || Path.dst path <> dst then
      invalid_arg "Net_state.place: path does not connect the flow endpoints";
    let demand = Flow_record.demand_mbps record in
    let dead = disabled_links t path in
    match dead @ congested_links t path ~demand with
    | _ :: _ as blocked -> Error (Congested blocked)
    | [] ->
        let placed = { record; path } in
        flow_put t record.id placed;
        occupy t placed;
        Ok ()
  end

let remove t id =
  match Hashtbl.find_opt t.flows id with
  | None -> Error `Not_found
  | Some placed ->
      flow_del t id placed;
      release t placed;
      Ok placed

let reroute ?(admit_disabled = false) t id new_path =
  match Hashtbl.find_opt t.flows id with
  | None -> invalid_arg "Net_state.reroute: flow not placed"
  | Some placed ->
      (* Judge feasibility with the flow's own usage released — computed
         arithmetically (residual +. demand on edges the old path shares
         with the new one) rather than by physically releasing and
         restoring the placement, so a rejected attempt costs no journal
         or flow-table traffic. The additions match what release used to
         apply, keeping the comparisons bit-identical. *)
      let demand = Flow_record.demand_mbps placed.record in
      let dead = if admit_disabled then [] else disabled_links t new_path in
      let congested =
        let ids = Path.hop_ids new_path in
        let g = graph t in
        let acc = ref [] in
        for i = Array.length ids - 1 downto 0 do
          let e = Array.unsafe_get ids i in
          touch t e;
          let r = Array.unsafe_get t.residual e in
          let avail =
            if Path.mentions_edge placed.path e then r +. demand else r
          in
          if avail < demand then acc := Graph.edge g e :: !acc
        done;
        !acc
      in
      (match dead @ congested with
      | _ :: _ as blocked -> Error (Congested blocked)
      | [] ->
          let src, dst = endpoints t placed.record in
          if Path.src new_path <> src || Path.dst new_path <> dst then
            invalid_arg "Net_state.reroute: path does not connect endpoints"
          else begin
            flow_del t id placed;
            release t placed;
            let placed' = { placed with path = new_path } in
            flow_put t id placed';
            occupy t placed';
            Ok placed.path
          end)

(* ------------------------------------------------------------------ *)
(* Structural sweeps. Both share one proof: if every placed flow is
   found on every hop of its path with its demand cached, and the
   on-edge sets hold exactly as many entries as the paths have hops,
   then (paths being loop-free) the sets equal the paths — no ghost,
   stray or duplicate entry can hide. Residuals are then recomputed per
   edge and compared. The first error wins. *)

let fail err fmt =
  Printf.ksprintf (fun msg -> if !err = None then err := Some msg) fmt

(* Per-flow half: the flow sits under its own key, and each hop's set
   holds it with the demand it places. *)
let audit_flow t err id placed =
  if placed.record.Flow_record.id <> id then
    fail err "flow %d stored under wrong key" id;
  let demand = Flow_record.demand_mbps placed.record in
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

(* Whole-net half: residuals against [expected], the entry count
   against [hops], the fabric-utilisation fold, the transaction depth
   and the committed log's freed prefix. *)
let audit_net t err ~expected ~hops =
  Array.iteri
    (fun id expect ->
      if expect < -1e-6 then fail err "edge %d oversubscribed" id
      else if abs_float (expect -. t.residual.(id)) > 1e-6 then
        fail err "edge %d residual %.6f, expected %.6f" id t.residual.(id)
          expect)
    expected;
  let entries = Array.fold_left ( + ) 0 t.oe_len in
  if entries <> hops then begin
    audit_entries t err;
    fail err "on-edge sets hold %d entries, paths have %d hops" entries hops
  end;
  if t.fabric_n > 0 then begin
    let g = graph t in
    let folded =
      List.fold_left
        (fun acc id ->
          let cap = Graph.capacity g id in
          if cap <= 0.0 then acc else acc +. ((cap -. t.residual.(id)) /. cap))
        0.0 t.fabric
    in
    if abs_float (folded -. t.util_sum) > 1e-6 then
      fail err "fabric util sum %.9f, expected %.9f" t.util_sum folded
  end;
  if t.txn_n > 0 then fail err "transaction left open";
  let held = passed t in
  if held > 0 then fail err "log holds %d ops every cursor has passed" held;
  match !err with Some msg -> Error msg | None -> Ok ()

let sweep t ~blackhole =
  let g = graph t in
  let expected =
    Array.init (Graph.edge_count g) (fun id ->
        Graph.capacity g id -. t.degraded.(id))
  in
  let err = ref None in
  let hops = ref 0 in
  Hashtbl.iter
    (fun id placed ->
      audit_flow t err id placed;
      let demand = Flow_record.demand_mbps placed.record in
      let ids = Path.hop_ids placed.path in
      hops := !hops + Array.length ids;
      for i = 0 to Array.length ids - 1 do
        let e = Array.unsafe_get ids i in
        expected.(e) <- expected.(e) -. demand;
        if t.disabled.(e) then
          blackhole ~flow:placed.record.Flow_record.id ~edge:e
      done)
    t.flows;
  audit_net t err ~expected ~hops:!hops

let sweep_changed t ~flows ~blackhole =
  let err = ref None in
  Array.iter
    (fun id ->
      match Hashtbl.find_opt t.flows id with
      | Some placed -> audit_flow t err id placed
      | None -> ())
    flows;
  let hops =
    Hashtbl.fold (fun _ placed acc -> acc + Path.hops placed.path) t.flows 0
  in
  let g = graph t in
  let expected =
    Array.init (Graph.edge_count g) (fun e ->
        let dem = t.oe_dem.(e) in
        let r = ref (Graph.capacity g e -. t.degraded.(e)) in
        for i = 0 to t.oe_len.(e) - 1 do
          r := !r -. Array.unsafe_get dem i
        done;
        !r)
  in
  if t.disabled_n > 0 then
    Array.iteri
      (fun e off ->
        if off then
          for i = 0 to t.oe_len.(e) - 1 do
            blackhole ~flow:t.oe_data.(e).(i) ~edge:e
          done)
      t.disabled;
  audit_net t err ~expected ~hops

let invariants_ok t = sweep t ~blackhole:(fun ~flow:_ ~edge:_ -> ())

let pp ppf t =
  Format.fprintf ppf "net[%s: %d flows, mean util %.1f%%, max util %.1f%%]"
    t.topo.Topology.name (flow_count t)
    (100.0 *. mean_utilization t)
    (100.0 *. max_utilization t)
