type placed = { record : Flow_record.t; path : Path.t }

(* Undo-journal entry tags. The journal is a flat struct-of-arrays log
   (tag / int operands / float operand / binding slot) instead of a
   variant list: a probe writes thousands of entries and the list cells
   plus boxed floats dominated minor-heap traffic. Residual entries
   store the *applied* delta and are undone by applying the opposite
   delta — the exact arithmetic the symmetric plan/revert pair used to
   perform, so rollback is bit-compatible with the historical
   revert-based probes. Flow-table entries store the previous binding
   in the [j_obj] slot. *)
let tag_residual = 0 (* a = edge id, f = applied delta *)

let tag_flow_put = 1 (* a = flow id, obj = previous binding *)
let tag_flow_del = 2 (* a = flow id, obj = removed binding *)
let tag_on_put_old = 3 (* a = edge id, b = flow id, was present *)
let tag_on_put_new = 4 (* a = edge id, b = flow id, was absent *)
let tag_on_del_old = 5 (* a = edge id, b = flow id, was present *)
let tag_on_del_new = 6 (* a = edge id, b = flow id, was absent *)
let tag_disabled_t = 7 (* a = edge id, previous flag = true *)
let tag_disabled_f = 8 (* a = edge id, previous flag = false *)
let tag_degraded = 9 (* a = edge id, f = applied degradation delta *)

(* Redo-log opcodes. Unlike journal tags these describe the *forward*
   effect, with every operand needed to re-apply it to an identical
   state: a mirror replays them through the same primitives, so scans
   (duplicate put, absent del) resolve identically on both sides. *)
let rt_residual = 0 (* a = edge id, f = delta *)
let rt_on_put = 1 (* a = edge id, b = flow id, f = demand, g = size *)
let rt_on_del = 2 (* a = edge id, b = flow id *)
let rt_flow_put = 3 (* a = flow id, obj = new binding *)
let rt_flow_del = 4 (* a = flow id *)
let rt_disable = 5 (* a = edge id (set the disabled flag) *)
let rt_enable = 6 (* a = edge id (clear the disabled flag) *)
let rt_degraded = 7 (* a = edge id, f = ledger delta *)

(* One span of the committed flow-change log (see the [flog] field). The
   record itself is the owning reader's token. *)
type flow_log = {
  mutable ids : int array;  (* used prefix is [0, len) *)
  mutable len : int;
  mutable lost : bool;  (* overflowed: no longer names every change *)
}

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
  (* Flat undo journal; used prefix is [0, j_len). *)
  mutable j_tag : int array;
  mutable j_a : int array;
  mutable j_b : int array;
  mutable j_f : float array;
  mutable j_g : float array;  (* second float operand (on-edge entries) *)
  mutable j_obj : placed option array;
  mutable j_len : int;
  mutable txn_marks : int array;  (* journal positions of open txns *)
  mutable txn_n : int;
  mutable disabled_n : int;  (* how many edges are administratively down *)
  mutable disabled_epoch : int;  (* bumped on every disable/enable *)
  mutable watch_on : bool;  (* probe read/write tracking active *)
  watch_seen : Bytes.t;  (* per-edge dedup mask for the probe set *)
  watch_buf : int array;  (* touched edges, dedup'd: at most one per edge *)
  mutable watch_n : int;
  (* Committed-mutation redo log (flat, like the journal; used prefix is
     [0, r_len)). When [redo_on], every mutation that survives — writes
     outside any transaction as they happen, writes inside a transaction
     at its outermost commit — is appended here, so a worker domain's
     mirror of this state can be brought up to date by replaying the
     drained log instead of re-copying the whole state. Rolled-back
     transactions never reach the log (their journal span is discarded
     before commit-time conversion), matching the fact that their
     effects were undone exactly. *)
  mutable redo_on : bool;
  mutable r_tag : int array;
  mutable r_a : int array;
  mutable r_b : int array;
  mutable r_f : float array;
  mutable r_g : float array;
  mutable r_obj : placed option array;
  mutable r_len : int;
  (* Committed flow-change log: ids of flows whose binding changed
     through a write that survives, recorded at the same two points as
     the redo log (writes outside any transaction, and the outermost
     commit). It names the flows an incremental invariant check must
     revisit. [None] until a reader starts one. *)
  mutable flog : flow_log option;
  memo_ro : bool;  (* domain snapshot: never write the shared memo *)
  paths_memo : (int, Path.t list) Hashtbl.t;
      (* (src,dst) -> full candidate set; topology-pure, shared by copies *)
}

let compute_fabric topo =
  let g = topo.Topology.graph in
  let host = Array.make (Graph.node_count g) false in
  Array.iter (fun h -> host.(h) <- true) topo.Topology.hosts;
  Graph.fold_edges g ~init:[] ~f:(fun acc (e : Graph.edge) ->
      if host.(e.src) || host.(e.dst) then acc else e.id :: acc)
  |> List.rev

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
    j_tag = Array.make journal_cap0 0;
    j_a = Array.make journal_cap0 0;
    j_b = Array.make journal_cap0 0;
    j_f = Array.make journal_cap0 0.0;
    j_g = Array.make journal_cap0 0.0;
    j_obj = Array.make journal_cap0 None;
    j_len = 0;
    txn_marks = Array.make 8 0;
    txn_n = 0;
    disabled_n = 0;
    disabled_epoch = 0;
    watch_on = false;
    watch_seen = Bytes.make n_edges '\000';
    watch_buf = Array.make (max 1 n_edges) 0;
    watch_n = 0;
    redo_on = false;
    r_tag = [||];
    r_a = [||];
    r_b = [||];
    r_f = [||];
    r_g = [||];
    r_obj = [||];
    r_len = 0;
    flog = None;
    memo_ro = false;
    paths_memo = Hashtbl.create 256;
  }

let copy_into ?(memo_ro = false) t =
  let flows = Hashtbl.copy t.flows in
  (* Copy only each edge's used prefix. Speculative migration churn can
     grow an edge's capacity far beyond its live occupancy (the arrays
     never shrink), and trimming turns tens of megabytes of dead slack
     into a few hundred kilobytes of live entries. 25% headroom keeps
     speculative probe churn on a fresh copy from paying an immediate
     re-grow (large-array allocation contends across domains);
     [oe_append] re-grows a trimmed (even empty) array on demand. *)
  let slack len = len + 4 + (len / 4) in
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
    j_tag = Array.make journal_cap0 0;
    j_a = Array.make journal_cap0 0;
    j_b = Array.make journal_cap0 0;
    j_f = Array.make journal_cap0 0.0;
    j_g = Array.make journal_cap0 0.0;
    j_obj = Array.make journal_cap0 None;
    j_len = 0;
    txn_marks = Array.make 8 0;
    txn_n = 0;
    disabled_n = t.disabled_n;
    disabled_epoch = t.disabled_epoch;
    watch_on = false;
    watch_seen = Bytes.make (Array.length t.residual) '\000';
    watch_buf = Array.make (max 1 (Array.length t.residual)) 0;
    watch_n = 0;
    redo_on = false;
    r_tag = [||];
    r_a = [||];
    r_b = [||];
    r_f = [||];
    r_g = [||];
    r_obj = [||];
    r_len = 0;
    flog = None;
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
   competitive with a hashtable probe and allocation-free. *)
let[@inline] oe_index t e fid =
  let data = Array.unsafe_get t.oe_data e in
  let n = Array.unsafe_get t.oe_len e in
  let rec go i =
    if i >= n then -1
    else if Array.unsafe_get data i = fid then i
    else go (i + 1)
  in
  go 0

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
  List.iter
    (fun placed ->
      Hashtbl.replace t.flows placed.record.Flow_record.id placed;
      List.iter
        (fun (e : Graph.edge) ->
          let fid = placed.record.Flow_record.id in
          if oe_index t e.id fid < 0 then
            oe_append t e.id fid
              (Flow_record.demand_mbps placed.record)
              placed.record.Flow_record.size_mbit)
        (Path.edges placed.path))
    fz.fz_flows;
  t

(* ------------------------------------------------------------------ *)
(* Probe read-set tracking. A bytes mask dedups membership in O(1), and
   the touched ids land in a preallocated buffer (an edge can appear at
   most once, so [watch_buf] never grows) — probes touch edges millions
   of times per run, so a hashtable or accumulator list here dominated
   the tracking cost. Disabled-flag reads are deliberately *not*
   tracked per edge: [disabled_epoch] stands in for all of them (see
   {!candidate_paths}). *)

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
let txn_depth t = t.txn_n
let disabled_epoch t = t.disabled_epoch
let edge_version t id =
  if id < 0 || id >= Array.length t.versions then
    invalid_arg "Net_state.edge_version: edge id";
  t.versions.(id)

let grow_journal t =
  let cap = Array.length t.j_tag in
  let cap' = 2 * cap in
  let grow_int a = Array.append a (Array.make cap 0) in
  t.j_tag <- grow_int t.j_tag;
  t.j_a <- grow_int t.j_a;
  t.j_b <- grow_int t.j_b;
  t.j_f <- Array.append t.j_f (Array.make cap 0.0);
  t.j_g <- Array.append t.j_g (Array.make cap 0.0);
  t.j_obj <- Array.append t.j_obj (Array.make cap None);
  ignore cap'

(* Append a journal entry; [obj] is only non-None for flow-table ops. *)
let[@inline] jpush t tag a b f =
  if t.j_len = Array.length t.j_tag then grow_journal t;
  let i = t.j_len in
  Array.unsafe_set t.j_tag i tag;
  Array.unsafe_set t.j_a i a;
  Array.unsafe_set t.j_b i b;
  Array.unsafe_set t.j_f i f;
  t.j_len <- i + 1

(* Variant carrying the second float operand (on-edge entries: the
   removed/added flow's demand and size, needed to restore the parallel
   arrays on undo). [jpush] leaves the slot stale, which is fine: undo
   only reads [j_g] for on-edge tags. *)
let[@inline] jpush2 t tag a b f g =
  if t.j_len = Array.length t.j_tag then grow_journal t;
  let i = t.j_len in
  Array.unsafe_set t.j_tag i tag;
  Array.unsafe_set t.j_a i a;
  Array.unsafe_set t.j_b i b;
  Array.unsafe_set t.j_f i f;
  Array.unsafe_set t.j_g i g;
  t.j_len <- i + 1

let[@inline] jpush_obj t tag a obj =
  if t.j_len = Array.length t.j_tag then grow_journal t;
  let i = t.j_len in
  Array.unsafe_set t.j_tag i tag;
  Array.unsafe_set t.j_a i a;
  Array.unsafe_set t.j_b i 0;
  Array.unsafe_set t.j_f i 0.0;
  Array.unsafe_set t.j_obj i obj;
  t.j_len <- i + 1

(* Redo-log append. Starts empty and doubles; the log is drained every
   probe batch, so it stays at the high-water mark of one batch's
   committed churn. *)
let grow_redo t =
  let cap = max 64 (2 * Array.length t.r_tag) in
  let grow_int a = Array.append a (Array.make (max 64 (Array.length a)) 0) in
  if Array.length t.r_tag = 0 then begin
    t.r_tag <- Array.make cap 0;
    t.r_a <- Array.make cap 0;
    t.r_b <- Array.make cap 0;
    t.r_f <- Array.make cap 0.0;
    t.r_g <- Array.make cap 0.0;
    t.r_obj <- Array.make cap None
  end
  else begin
    t.r_tag <- grow_int t.r_tag;
    t.r_a <- grow_int t.r_a;
    t.r_b <- grow_int t.r_b;
    t.r_f <- Array.append t.r_f (Array.make (Array.length t.r_f) 0.0);
    t.r_g <- Array.append t.r_g (Array.make (Array.length t.r_g) 0.0);
    t.r_obj <- Array.append t.r_obj (Array.make (Array.length t.r_obj) None)
  end

let[@inline] rpush t tag a b f g =
  if t.r_len = Array.length t.r_tag then grow_redo t;
  let i = t.r_len in
  Array.unsafe_set t.r_tag i tag;
  Array.unsafe_set t.r_a i a;
  Array.unsafe_set t.r_b i b;
  Array.unsafe_set t.r_f i f;
  Array.unsafe_set t.r_g i g;
  t.r_len <- i + 1

let[@inline] rpush_obj t tag a obj =
  if t.r_len = Array.length t.r_tag then grow_redo t;
  let i = t.r_len in
  Array.unsafe_set t.r_tag i tag;
  Array.unsafe_set t.r_a i a;
  Array.unsafe_set t.r_b i 0;
  Array.unsafe_set t.r_f i 0.0;
  Array.unsafe_set t.r_g i 0.0;
  Array.unsafe_set t.r_obj i (Some obj);
  t.r_len <- i + 1

(* Flow-change log append. A span holding more ids than the state has
   flows (plus slack) costs a reader as much as a full sweep, so it
   stops growing there and is marked lost instead: memory stays bounded
   even when nobody drains. *)
let note_change t l id =
  let n = l.len in
  if n = Array.length l.ids && not l.lost then begin
    if n >= Hashtbl.length t.flows + 1024 then l.lost <- true
    else begin
      let d = Array.make (max 256 (2 * n)) 0 in
      Array.blit l.ids 0 d 0 n;
      l.ids <- d
    end
  end;
  if not l.lost then begin
    Array.unsafe_set l.ids n id;
    l.len <- n + 1
  end

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
  if journal_active t then jpush t tag_residual e 0 delta
  else begin
    t.versions.(e) <- t.versions.(e) + 1;
    if t.redo_on then rpush t rt_residual e 0 delta 0.0
  end;
  t.residual.(e) <- t.residual.(e) +. delta;
  (* used = capacity - residual, so utilisation moves opposite to the
     residual delta. *)
  if Array.unsafe_get t.is_fabric e then
    kadd t (-.(delta *. Array.unsafe_get t.inv_cap e))

let[@inline] on_edge_put t e fid dem size =
  let i = oe_index t e fid in
  if journal_active t then
    jpush2 t (if i >= 0 then tag_on_put_old else tag_on_put_new) e fid dem size
  else if t.redo_on then rpush t rt_on_put e fid dem size;
  if i < 0 then oe_append t e fid dem size

let[@inline] on_edge_del t e fid =
  let i = oe_index t e fid in
  if journal_active t then begin
    if i >= 0 then
      (* Journal the entry's demand/size so undo can re-append it. *)
      jpush2 t tag_on_del_old e fid t.oe_dem.(e).(i) t.oe_size.(e).(i)
    else jpush2 t tag_on_del_new e fid 0.0 0.0
  end
  else if t.redo_on then rpush t rt_on_del e fid 0.0 0.0;
  if i >= 0 then oe_remove_at t e i

let[@inline] flow_put t id p =
  if journal_active t then
    jpush_obj t tag_flow_put id (Hashtbl.find_opt t.flows id)
  else begin
    if t.redo_on then rpush_obj t rt_flow_put id p;
    match t.flog with Some l -> note_change t l id | None -> ()
  end;
  Hashtbl.replace t.flows id p

let[@inline] flow_del t id p =
  if journal_active t then jpush_obj t tag_flow_del id (Some p)
  else begin
    if t.redo_on then rpush t rt_flow_del id 0 0.0 0.0;
    match t.flog with Some l -> note_change t l id | None -> ()
  end;
  Hashtbl.remove t.flows id

(* Undo journal entry [i]; clears its binding slot. *)
let undo t i =
  let tag = t.j_tag.(i) and a = t.j_a.(i) in
  if tag = tag_residual then begin
    let delta = t.j_f.(i) in
    t.residual.(a) <- t.residual.(a) -. delta;
    if t.is_fabric.(a) then kadd t (delta *. t.inv_cap.(a))
  end
  else if tag = tag_flow_put then begin
    (match t.j_obj.(i) with
    | None -> Hashtbl.remove t.flows a
    | Some p -> Hashtbl.replace t.flows a p);
    t.j_obj.(i) <- None
  end
  else if tag = tag_flow_del then begin
    (match t.j_obj.(i) with
    | Some p -> Hashtbl.replace t.flows a p
    | None -> assert false);
    t.j_obj.(i) <- None
  end
  else if tag = tag_on_put_new then begin
    let j = oe_index t a t.j_b.(i) in
    assert (j >= 0);
    oe_remove_at t a j
  end
  else if tag = tag_on_del_old then oe_append t a t.j_b.(i) t.j_f.(i) t.j_g.(i)
  else if tag = tag_on_put_old || tag = tag_on_del_new then ()
  else if tag = tag_disabled_t || tag = tag_disabled_f then begin
    let prev = tag = tag_disabled_t in
    t.disabled.(a) <- prev;
    t.disabled_n <- t.disabled_n + (if prev then 1 else -1)
  end
  else if tag = tag_degraded then t.degraded.(a) <- t.degraded.(a) -. t.j_f.(i)
  else assert false

let begin_txn t =
  if t.txn_n = Array.length t.txn_marks then
    t.txn_marks <- Array.append t.txn_marks (Array.make t.txn_n 0);
  t.txn_marks.(t.txn_n) <- t.j_len;
  t.txn_n <- t.txn_n + 1

let rollback t =
  if t.txn_n = 0 then invalid_arg "Net_state.rollback: no open transaction"
  else begin
    Nu_obs.Counters.incr Nu_obs.Counters.Txn_rollbacks;
    let mark = t.txn_marks.(t.txn_n - 1) in
    for i = t.j_len - 1 downto mark do
      undo t i
    done;
    t.j_len <- mark;
    t.txn_n <- t.txn_n - 1
  end

(* Convert the surviving journal — exactly the op stream of the
   committing transaction, inner rollbacks already excised — into redo
   entries. Flow-table entries journal the *previous* binding, so the
   new one is read off the live table: only the final binding per id
   matters to a replayer (no redo op in between reads the table), and
   an [rt_flow_del] of an absent id replays as a no-op. *)
let journal_to_redo t =
  for i = 0 to t.j_len - 1 do
    let tag = t.j_tag.(i) and a = t.j_a.(i) in
    if tag = tag_residual then rpush t rt_residual a 0 t.j_f.(i) 0.0
    else if tag = tag_on_put_old || tag = tag_on_put_new then
      rpush t rt_on_put a t.j_b.(i) t.j_f.(i) t.j_g.(i)
    else if tag = tag_on_del_old then rpush t rt_on_del a t.j_b.(i) 0.0 0.0
    else if tag = tag_on_del_new then ()
    else if tag = tag_flow_put || tag = tag_flow_del then begin
      match Hashtbl.find_opt t.flows a with
      | Some p -> rpush_obj t rt_flow_put a p
      | None -> rpush t rt_flow_del a 0 0.0 0.0
    end
    else if tag = tag_disabled_t then rpush t rt_enable a 0 0.0 0.0
    else if tag = tag_disabled_f then rpush t rt_disable a 0 0.0 0.0
    else if tag = tag_degraded then rpush t rt_degraded a 0 t.j_f.(i) 0.0
    else assert false
  done

let commit t =
  if t.txn_n = 0 then invalid_arg "Net_state.commit: no open transaction"
  else begin
    t.txn_n <- t.txn_n - 1;
    if t.txn_n = 0 then begin
      if t.redo_on then journal_to_redo t;
      (* Outermost commit: the journaled writes become permanent, so
         stamp every edge they touched (once per entry, matching the
         per-write stamping outside transactions). Inner commits just
         merge into the enclosing transaction. *)
      Nu_obs.Counters.incr Nu_obs.Counters.Txn_commits;
      for i = 0 to t.j_len - 1 do
        let tag = t.j_tag.(i) in
        if
          tag = tag_residual || tag = tag_disabled_t || tag = tag_disabled_f
        then begin
          let e = t.j_a.(i) in
          t.versions.(e) <- t.versions.(e) + 1
        end
        (* tag_degraded rides on its paired residual entry for stamping. *)
        else if tag = tag_flow_put || tag = tag_flow_del then begin
          t.j_obj.(i) <- None;
          match t.flog with
          | Some l -> note_change t l t.j_a.(i)
          | None -> ()
        end
      done;
      t.j_len <- 0
    end
  end

(* ------------------------------------------------------------------ *)
(* Redo log: public surface. *)

type redo = {
  rd_tag : int array;
  rd_a : int array;
  rd_b : int array;
  rd_f : float array;
  rd_g : float array;
  rd_obj : placed option array;
  rd_n : int;
}

let redo_start t =
  t.redo_on <- true;
  t.r_len <- 0

let redo_stop t =
  t.redo_on <- false;
  Array.fill t.r_obj 0 (Array.length t.r_obj) None;
  t.r_len <- 0

let redo_active t = t.redo_on

let redo_drain t =
  let n = t.r_len in
  let rd =
    {
      rd_tag = Array.sub t.r_tag 0 n;
      rd_a = Array.sub t.r_a 0 n;
      rd_b = Array.sub t.r_b 0 n;
      rd_f = Array.sub t.r_f 0 n;
      rd_g = Array.sub t.r_g 0 n;
      rd_obj = Array.sub t.r_obj 0 n;
      rd_n = n;
    }
  in
  Array.fill t.r_obj 0 n None;
  t.r_len <- 0;
  rd

let redo_size rd = rd.rd_n

(* ------------------------------------------------------------------ *)
(* Flow-change log: public surface. *)

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

let track_flow_changes t =
  let l = { ids = [||]; len = 0; lost = false } in
  t.flog <- Some l;
  l

let drain_flow_changes t l =
  match t.flog with
  | Some cur when cur == l && not l.lost ->
      let ids = Array.sub l.ids 0 l.len in
      (* Drop the buffer rather than keep it at its high-water size for
         the life of the state. *)
      l.ids <- [||];
      l.len <- 0;
      Some (dedup_sorted ids)
  | _ -> None

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

let mean_utilization ?edges t =
  match edges with
  | Some [] -> 0.0
  | Some ids ->
      let sum = List.fold_left (fun acc id -> acc +. edge_utilization t id) 0.0 ids in
      sum /. float_of_int (List.length ids)
  | None ->
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
      jpush t (if t.disabled.(id) then tag_disabled_t else tag_disabled_f) id 0
        0.0
    else begin
      t.versions.(id) <- t.versions.(id) + 1;
      if t.redo_on then rpush t (if v then rt_disable else rt_enable) id 0 0.0 0.0
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
    if journal_active t then jpush t tag_degraded id 0 lost_mbps
    else if t.redo_on then rpush t rt_degraded id 0 lost_mbps 0.0;
    t.degraded.(id) <- t.degraded.(id) +. lost_mbps
  end

let restore_edge_capacity t id =
  check_edge_id t id "restore_edge_capacity";
  let lost = t.degraded.(id) in
  if lost > 0.0 then begin
    apply_residual t id lost;
    if journal_active t then jpush t tag_degraded id 0 (-.lost)
    else if t.redo_on then rpush t rt_degraded id 0 (-.lost) 0.0;
    t.degraded.(id) <- 0.0
  end

let degraded_mbps t id =
  check_edge_id t id "degraded_mbps";
  t.degraded.(id)

(* Replay a drained redo log against a mirror that was bit-identical to
   the source when the log began. Ops funnel through the same
   primitives the source executed, so membership scans, the Kahan
   utilisation sum and swap-remove order all evolve exactly as they did
   (or would have, for ops that only materialised at commit) on the
   source. The mirror must be quiescent: no open transaction, no active
   probe, redo logging off. *)
let redo_apply t rd =
  if t.txn_n > 0 then invalid_arg "Net_state.redo_apply: open transaction";
  if t.watch_on then invalid_arg "Net_state.redo_apply: active probe";
  if t.redo_on then invalid_arg "Net_state.redo_apply: redo logging active";
  for i = 0 to rd.rd_n - 1 do
    let tag = rd.rd_tag.(i) and a = rd.rd_a.(i) in
    if tag = rt_residual then apply_residual t a rd.rd_f.(i)
    else if tag = rt_on_put then
      on_edge_put t a rd.rd_b.(i) rd.rd_f.(i) rd.rd_g.(i)
    else if tag = rt_on_del then on_edge_del t a rd.rd_b.(i)
    else if tag = rt_flow_put then begin
      match rd.rd_obj.(i) with
      | Some p -> flow_put t a p
      | None -> assert false
    end
    else if tag = rt_flow_del then begin
      (match t.flog with Some l -> note_change t l a | None -> ());
      Hashtbl.remove t.flows a
    end
    else if tag = rt_disable then set_disabled t a true
    else if tag = rt_enable then set_disabled t a false
    else if tag = rt_degraded then t.degraded.(a) <- t.degraded.(a) +. rd.rd_f.(i)
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

let path_enabled t path =
  let ids = Path.hop_ids path in
  let n = Array.length ids in
  let rec go i =
    i >= n || ((not t.disabled.(Array.unsafe_get ids i)) && go (i + 1))
  in
  go 0

let memo_key t ~src ~dst = (src * Graph.node_count (graph t)) + dst

let candidate_paths t record =
  Nu_obs.Counters.incr Nu_obs.Counters.Path_enumerations;
  let src, dst = endpoints t record in
  let key = memo_key t ~src ~dst in
  let all =
    (* The unfiltered candidate set is a pure function of the topology;
       memoise it so repeated probes skip the path re-construction.
       Domain snapshots ([memo_ro]) read the shared table but never
       write it — [Probe_pool.create] pre-warms every host pair before
       taking them, so worker misses are a cold fallback, not the
       norm. *)
    match Hashtbl.find_opt t.paths_memo key with
    | Some ps -> ps
    | None ->
        let ps = t.topo.Topology.candidate_paths ~src ~dst in
        if not t.memo_ro then Hashtbl.add t.paths_memo key ps;
        ps
  in
  (* With no edge down — the overwhelmingly common case — the filter is
     the identity; skip it. Probes need no per-edge record of the
     disabled reads either way: any disable/enable bumps
     [disabled_epoch], which the stale-plan check reads wholesale. *)
  if t.disabled_n = 0 then all else List.filter (path_enabled t) all

let warm_all_paths t =
  (* Populate the path memo (and any topology-internal cache) for every
     ordered host pair, without counting the enumerations — this is a
     cache fill, not planning work. Called once on the main domain
     before probe snapshots start sharing the memo read-only. *)
  if not t.memo_ro then begin
    let hosts = t.topo.Topology.hosts in
    Array.iter
      (fun src ->
        Array.iter
          (fun dst ->
            if src <> dst then begin
              let key = memo_key t ~src ~dst in
              if not (Hashtbl.mem t.paths_memo key) then
                Hashtbl.add t.paths_memo key
                  (t.topo.Topology.candidate_paths ~src ~dst)
            end)
          hosts)
      hosts
  end

let path_feasible t path ~demand =
  let ids = Path.hop_ids path in
  let n = Array.length ids in
  (* Short-circuits exactly like the List.for_all it replaces: edges
     past the first infeasible one are not touched, keeping probe read
     sets (and so stale-plan stamps) bit-identical. *)
  let rec go i =
    i >= n
    ||
    let e = Array.unsafe_get ids i in
    touch t e;
    (not (Array.unsafe_get t.disabled e))
    && Array.unsafe_get t.residual e >= demand
    && go (i + 1)
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
            else if oe_index t e fid < i then
              fail err "edge %d lists flow %d twice" e fid
      done)
    t.oe_data

(* Whole-net half: residuals against [expected], the entry count
   against [hops], the fabric-utilisation fold and the transaction
   depth. *)
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
