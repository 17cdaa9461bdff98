type move = {
  flow_id : int;
  from_path : Path.t;
  to_path : Path.t;
  size_mbit : float;
  demand_mbps : float;
}

type order =
  | Best_fit_first
  | Largest_demand_first
  | Best_ratio_first

let order_name = function
  | Best_fit_first -> "best-fit-first"
  | Largest_demand_first -> "largest-demand-first"
  | Best_ratio_first -> "best-ratio-first"

let all_orders = [ Best_fit_first; Largest_demand_first; Best_ratio_first ]

type blocked = Cannot_free of Graph.edge

let moves_cost_mbit moves =
  List.fold_left (fun acc m -> acc +. m.size_mbit) 0.0 moves

(* The per-link selection loop picks from a candidate pool that lives
   in domain-local scratch arrays fed straight from Net_state's per-edge
   columns ({!Net_state.edge_flows_blit}) — no per-pool list, no sort,
   no hashtable resolution per flow. Each pick pops a binary heap of
   pool indices ordered by (key, flow id); the id tie-break picks the
   same flow the historical first-wins scan over an id-sorted pool did.
   A [used] mask covers "already selected" and "found not eligible".
   Eligibility (not one of the event's own flows, not migrated earlier
   in this clear) is checked only for the entry a pick would return:
   during one link's loop neither set gains an unused entry, so the
   lazy check picks what an upfront one would. *)
type heap = { mutable slot : int array; mutable len : int }

type scratch = {
  mutable ids : int array;  (* flow id *)
  mutable dem : float array;  (* demand_mbps *)
  mutable size : float array;  (* size_mbit *)
  mutable skey : float array;  (* static key under the chosen order *)
  mutable used : bool array;
  fit : heap;  (* best-fit phase: entries with dem >= fit_gap, by size *)
  mutable fit_gap : float;  (* the gap [fit] was built for; nan: none *)
  fallback : heap;  (* by skey; len -1 until the pool first falls back *)
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        ids = Array.make 64 0;
        dem = Array.make 64 0.0;
        size = Array.make 64 0.0;
        skey = Array.make 64 0.0;
        used = Array.make 64 false;
        fit = { slot = Array.make 64 0; len = 0 };
        fit_gap = nan;
        fallback = { slot = Array.make 64 0; len = -1 };
      })

let ensure_scratch s n =
  if Array.length s.ids < n then begin
    let cap = ref (Array.length s.ids) in
    while !cap < n do
      cap := !cap * 2
    done;
    s.ids <- Array.make !cap 0;
    s.dem <- Array.make !cap 0.0;
    s.size <- Array.make !cap 0.0;
    s.skey <- Array.make !cap 0.0;
    s.used <- Array.make !cap false;
    s.fit.slot <- Array.make !cap 0;
    s.fallback.slot <- Array.make !cap 0
  end

(* Fill the domain's scratch with edge [edge_id]'s flows; returns the
   entry count. Safe to reuse across the whole clear: nothing below
   (try_relocate, reroute) builds another pool before this link's loop
   finishes. *)
let fill_pool s net edge_id =
  ensure_scratch s (Net_state.edge_flow_count net edge_id);
  let n =
    Net_state.edge_flows_blit net edge_id ~ids:s.ids ~dem:s.dem ~size:s.size
  in
  Array.fill s.used 0 n false;
  s.fit_gap <- nan;
  s.fallback.len <- -1;
  n

(* One heap helper for both phases: the key column is an argument, not
   a comparison closure. Entry [i] precedes [j] when its (key, flow id)
   is lexicographically smaller. *)
let[@inline] precedes (key : float array) (ids : int array) i j =
  let ki = Array.unsafe_get key i and kj = Array.unsafe_get key j in
  ki < kj || (ki = kj && Array.unsafe_get ids i < Array.unsafe_get ids j)

let rec sift_down key ids h i =
  let l = (2 * i) + 1 and a = h.slot in
  if l < h.len then begin
    let c =
      if l + 1 < h.len && precedes key ids a.(l + 1) a.(l) then l + 1 else l
    in
    if precedes key ids a.(c) a.(i) then begin
      let x = a.(i) in
      a.(i) <- a.(c);
      a.(c) <- x;
      sift_down key ids h c
    end
  end

(* Heap order over the [h.len] entries already pushed. *)
let heapify key ids h =
  for i = (h.len / 2) - 1 downto 0 do
    sift_down key ids h i
  done

let[@inline] push h i =
  h.slot.(h.len) <- i;
  h.len <- h.len + 1

(* Remove and return [h]'s least unused entry, or -1. Entries selected
   since the heap was built are dropped as they surface. *)
let rec pop key s h =
  if h.len = 0 then -1
  else begin
    let top = h.slot.(0) in
    h.len <- h.len - 1;
    h.slot.(0) <- h.slot.(h.len);
    sift_down key s.ids h 0;
    if Array.unsafe_get s.used top then pop key s h else top
  end

(* One clear's fixed inputs, the moves it has applied, and the pick
   being relocated. The relocation eligibility closure reads [cands] and
   [current], which each relocation sets before its policy scan: one
   closure per clear rather than one per pick, and no labelled-argument
   threading through the loops below. *)
type clearing = {
  net : Net_state.t;
  order : order;
  policy : Routing.policy;
  avoid : Event.avoid;
  work_units : int ref;
  exclude : int -> bool;
  desired : int array;  (* the cleared path's hop ids *)
  mutable applied : move list;  (* newest first *)
  mutable cands : Net_state.candidates;  (* the pick's candidate view *)
  mutable current : Path.t;  (* the pick's placed path *)
}

(* Whether [id] was migrated earlier in this clear: moves per clear are
   few, so a scan of the applied list serves as the set. *)
let rec was_moved id = function
  | [] -> false
  | m :: rest -> m.flow_id = id || was_moved id rest

(* Pick the next flow to migrate for the remaining [gap] (index into the
   scratch, or -1 when exhausted). Best-fit is gap-dependent: prefer the
   smallest flow that closes the gap alone, from a heap rebuilt whenever
   the gap differs from the one it was built for (nothing assumes the
   gap only shrinks); otherwise fall back to the best static key, from a
   heap built once per pool. A heap needs a total order, so a key that
   is not below infinity (NaN, an infinite size or ratio) never enters
   one, and such an entry is never picked. The filter is needed:
   {!Flow_record.v} and {!Net_state.place} both let a NaN size or an
   infinite duration (zero demand) through. *)
let rec select_next order ~gap ~exclude ~applied s n =
  let fit = s.fit and fb = s.fallback in
  if order = Best_fit_first && gap <> s.fit_gap then begin
    fit.len <- 0;
    for i = 0 to n - 1 do
      if
        (not (Array.unsafe_get s.used i))
        && Array.unsafe_get s.dem i >= gap
        && Array.unsafe_get s.size i < infinity
      then push fit i
    done;
    heapify s.size s.ids fit;
    s.fit_gap <- gap
  end;
  let i = if order = Best_fit_first then pop s.size s fit else -1 in
  let i =
    if i >= 0 then i
    else begin
      if fb.len < 0 then begin
        fb.len <- 0;
        for i = 0 to n - 1 do
          let k =
            match order with
            | Largest_demand_first -> -.Array.unsafe_get s.dem i
            | Best_ratio_first | Best_fit_first ->
                Array.unsafe_get s.size i /. Array.unsafe_get s.dem i
          in
          Array.unsafe_set s.skey i k;
          if k < infinity && not (Array.unsafe_get s.used i) then push fb i
        done;
        heapify s.skey s.ids fb
      end;
      pop s.skey s fb
    end
  in
  if i >= 0 && (exclude s.ids.(i) || was_moved s.ids.(i) applied) then begin
    s.used.(i) <- true;
    select_next order ~gap ~exclude ~applied s n
  end
  else i

(* [id] is not among the hop ids [ids]. A loop, not a local recursive
   function: that would be a closure allocated per call. *)
let off_path (ids : int array) (id : int) =
  let n = Array.length ids in
  let j = ref 0 in
  while !j < n && Array.unsafe_get ids !j <> id do
    incr j
  done;
  !j >= n

let all_off_path ids (hops : int array) =
  let n = Array.length hops in
  let j = ref 0 in
  while !j < n && off_path ids (Array.unsafe_get hops !j) do
    incr j
  done;
  !j >= n

(* Relocation targets must leave the desired path entirely, respect the
   clear's avoidance constraint, differ from the flow's current path and
   be congestion-free for the migrated flow. Feasibility is judged as
   Net_state.reroute judges it (the flow's current usage released), so
   partially-overlapping current/target paths are handled.

   The candidate walk runs over the memoised candidate view: the policy
   choice is {!Routing.select_from} restricted to eligible indices, and
   only a reroute that will succeed builds a full path
   ({!Net_state.candidate_reroutable} reads the edges the reroute
   would). Eligibility is pure (edge-id arrays and the avoidance
   constraint), so re-evaluating it per phase is unobservable;
   feasibility and the policy keys read net state in candidate order, so
   recorded read sets and every decision are those of the path-list
   walk. *)
let relocatable cl i =
  let c = cl.cands in
  all_off_path cl.desired c.Net_state.interior.(i)
  && Event.candidate_respects cl.net c i cl.avoid
  && not (Net_state.candidate_is c i cl.current)

(* One reroute attempt of the pick [p] onto candidate [i]. *)
let attempt cl (p : Net_state.placed) ~demand i =
  incr cl.work_units;
  Net_state.candidate_reroutable cl.net p cl.cands i
  &&
  let to_path = Net_state.candidate_path cl.net cl.cands i in
  match Net_state.reroute cl.net p.record.Flow_record.id to_path with
  | Ok from_path ->
      cl.applied <-
        {
          flow_id = p.record.id;
          from_path;
          to_path;
          size_mbit = p.record.size_mbit;
          demand_mbps = demand;
        }
        :: cl.applied;
      true
  | Error _ -> assert false (* candidate_reroutable said it fits *)

(* The remaining eligible candidates in enumeration order, after the
   ranked winner [best]. *)
let rec attempt_rest cl p ~demand best i =
  i < Net_state.candidate_count cl.cands
  && ((i <> best && relocatable cl i && attempt cl p ~demand i)
     || attempt_rest cl p ~demand best (i + 1))

(* Relocate the pick [p]; true when it moved. Every fabric attaches a
   host by one link, so the placed path's first and last hops are the
   access hops every candidate of the flow shares: when either lies on
   the desired path no candidate is eligible, and such a pick (most of
   them) returns before its candidate view is built. *)
let try_relocate cl eligible (p : Net_state.placed) =
  let hops = Path.hop_ids p.path in
  off_path cl.desired (Array.unsafe_get hops 0)
  && off_path cl.desired (Array.unsafe_get hops (Array.length hops - 1))
  &&
  let c = Net_state.candidates cl.net p.record in
  cl.cands <- c;
  cl.current <- p.path;
  let demand = Flow_record.demand_mbps p.record in
  let best = Routing.select_from ~policy:cl.policy ~eligible cl.net ~demand c in
  (best >= 0 && attempt cl p ~demand best) || attempt_rest cl p ~demand best 0

(* Relocate picks off [e] until its gap closes (true) or no pick is left
   (false). Placements are resolved lazily: only selected flows are ever
   rerouted, so an unselected entry's placement cannot have changed
   since the blit. *)
let rec free_gap cl eligible s n (e : Graph.edge) ~demand ~gap =
  match select_next cl.order ~gap ~exclude:cl.exclude ~applied:cl.applied s n with
  | -1 -> false
  | i ->
      s.used.(i) <- true;
      (* On-edge flows are placed, so the lookup cannot raise. *)
      ignore (try_relocate cl eligible (Net_state.peek_flow cl.net s.ids.(i)));
      let gap = Net_state.capacity_gap cl.net e ~demand in
      gap <= 0.0 || free_gap cl eligible s n e ~demand ~gap

(* Undo the applied moves, newest first. admit_disabled: the origin
   path may cross a link that failed after the flow was placed there;
   rollback must restore the placement regardless. *)
let rec rollback net = function
  | [] -> ()
  | m :: rest ->
      (match Net_state.reroute ~admit_disabled:true net m.flow_id m.from_path with
      | Ok _ -> ()
      | Error _ -> assert false (* reverse order restores capacity *));
      rollback net rest

let rec clear_links cl eligible s ~demand = function
  | [] -> Ok (List.rev cl.applied)
  | (e : Graph.edge) :: rest ->
      let gap = Net_state.capacity_gap cl.net e ~demand in
      if gap <= 0.0 then clear_links cl eligible s ~demand rest
      else if free_gap cl eligible s (fill_pool s cl.net e.id) e ~demand ~gap
      then clear_links cl eligible s ~demand rest
      else begin
        rollback cl.net cl.applied;
        Error (Cannot_free e)
      end

let clear_path ~order ~policy ~avoid ~work_units net ~demand ~path ~exclude =
  Nu_obs.Counters.incr Nu_obs.Counters.Clear_attempts;
  let sp =
    if Nu_obs.Trace.enabled () then
      Some
        (Nu_obs.Trace.span "migrate"
           ~attrs:
             [
               ("demand_mbps", Nu_obs.Trace.Float demand);
               ("hops", Nu_obs.Trace.Int (Path.hops path));
             ])
    else None
  in
  let h_on = Nu_obs.Histogram.Registry.enabled () in
  let h_t0 = if h_on then Nu_obs.Trace.now_ns () else 0L in
  let cl =
    {
      net;
      order;
      policy;
      avoid;
      work_units;
      exclude;
      desired = Path.hop_ids path;
      applied = [];
      cands = Net_state.no_candidates;
      current = path;
    }
  in
  let eligible i = relocatable cl i in
  let result =
    clear_links cl eligible
      (Domain.DLS.get scratch_key)
      ~demand
      (Net_state.congested_links net path ~demand)
  in
  (match result with
  | Ok moves -> Nu_obs.Counters.add Nu_obs.Counters.Migration_moves (List.length moves)
  | Error _ -> ());
  if h_on then begin
    Nu_obs.Histogram.Registry.record "migration.clear_latency_s"
      (Int64.to_float (Int64.sub (Nu_obs.Trace.now_ns ()) h_t0) *. 1e-9);
    match result with
    | Ok moves ->
        Nu_obs.Histogram.Registry.record "migration.moves_per_clear"
          (float_of_int (List.length moves))
    | Error _ -> ()
  end;
  (match sp with
  | Some sp ->
      let attrs =
        match result with
        | Ok moves ->
            [
              ("cleared", Nu_obs.Trace.Bool true);
              ("moves", Nu_obs.Trace.Int (List.length moves));
              ("moved_mbit", Nu_obs.Trace.Float (moves_cost_mbit moves));
            ]
        | Error (Cannot_free e) ->
            [
              ("cleared", Nu_obs.Trace.Bool false);
              ("blocked_edge", Nu_obs.Trace.Int e.Graph.id);
            ]
      in
      Nu_obs.Trace.finish sp ~attrs
  | None -> ());
  result
