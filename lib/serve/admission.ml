type policy =
  | Block
  | Drop_newest
  | Drop_oldest
  | Tenant_quota of int

let policy_name = function
  | Block -> "block"
  | Drop_newest -> "drop-newest"
  | Drop_oldest -> "drop-oldest"
  | Tenant_quota q -> Printf.sprintf "tenant-quota(%d)" q

let policy_of_name s =
  match String.lowercase_ascii s with
  | "block" -> Ok Block
  | "drop-newest" -> Ok Drop_newest
  | "drop-oldest" -> Ok Drop_oldest
  | s -> (
      match Scanf.sscanf_opt s "tenant-quota(%d)" (fun q -> q) with
      | Some q when q > 0 -> Ok (Tenant_quota q)
      | Some _ -> Error "tenant quota must be positive"
      | None -> Error (Printf.sprintf "unknown admission policy %S" s))

type entry = { seq : int; enq_tick : int; request : Request.t }

type stat = {
  mutable admitted : int;
  mutable shed : int;
  mutable drained : int;
}

type t = {
  capacity : int;
  policy : policy;
  mutable tenants : string list;  (* drain rotation, head drains next *)
  queues : (string, entry Queue.t) Hashtbl.t;
  stats : (string, stat) Hashtbl.t;
  mutable size : int;
  mutable next_seq : int;
}

let create ~capacity ~policy =
  if capacity <= 0 then invalid_arg "Admission.create: capacity must be > 0";
  (match policy with
  | Tenant_quota q when q <= 0 ->
      invalid_arg "Admission.create: tenant quota must be > 0"
  | _ -> ());
  {
    capacity;
    policy;
    tenants = [];
    queues = Hashtbl.create 16;
    stats = Hashtbl.create 16;
    size = 0;
    next_seq = 0;
  }

let size t = t.size

let stat_for t tenant =
  match Hashtbl.find_opt t.stats tenant with
  | Some s -> s
  | None ->
      let s = { admitted = 0; shed = 0; drained = 0 } in
      Hashtbl.replace t.stats tenant s;
      s

let queue_for t tenant =
  match Hashtbl.find_opt t.queues tenant with
  | Some q -> q
  | None ->
      let q = Queue.create () in
      Hashtbl.replace t.queues tenant q;
      (* New tenants join at the back of the rotation: first-seen order
         is deterministic and replay-stable. *)
      t.tenants <- t.tenants @ [ tenant ];
      q

let enqueue t ~tick req =
  let q = queue_for t req.Request.tenant in
  Queue.push { seq = t.next_seq; enq_tick = tick; request = req } q;
  t.next_seq <- t.next_seq + 1;
  t.size <- t.size + 1

(* The globally oldest queued entry (smallest admission sequence): only
   queue heads can hold it, so the scan is O(tenants). *)
let oldest_tenant t =
  List.fold_left
    (fun acc tenant ->
      match Hashtbl.find_opt t.queues tenant with
      | None -> acc
      | Some q -> (
          match Queue.peek_opt q with
          | None -> acc
          | Some e -> (
              match acc with
              | Some (best, _) when best.seq <= e.seq -> acc
              | _ -> Some (e, tenant))))
    None t.tenants

type outcome = Admitted | Shed of string | Deferred

let offer t ~tick req =
  let tenant = req.Request.tenant in
  let st = stat_for t tenant in
  let over_quota =
    match t.policy with
    | Tenant_quota q -> (
        match Hashtbl.find_opt t.queues tenant with
        | Some tq -> Queue.length tq >= q
        | None -> q = 0)
    | _ -> false
  in
  if over_quota then begin
    st.shed <- st.shed + 1;
    Shed "tenant-quota"
  end
  else if t.size < t.capacity then begin
    enqueue t ~tick req;
    st.admitted <- st.admitted + 1;
    Admitted
  end
  else
    match t.policy with
    | Block -> Deferred
    | Drop_newest | Tenant_quota _ ->
        st.shed <- st.shed + 1;
        Shed "capacity"
    | Drop_oldest -> (
        match oldest_tenant t with
        | None ->
            (* capacity > 0 and size >= capacity imply a queued entry *)
            assert false
        | Some (victim, vtenant) ->
            let vq = Hashtbl.find t.queues vtenant in
            ignore (Queue.pop vq);
            t.size <- t.size - 1;
            let vstat = stat_for t vtenant in
            vstat.shed <- vstat.shed + 1;
            ignore victim;
            enqueue t ~tick req;
            st.admitted <- st.admitted + 1;
            Admitted)

(* Fair drain: one request per tenant per rotation sweep, starting from
   the rotation head; the rotation advances past every tenant visited,
   so no tenant is served twice before all backlogged tenants are served
   once. *)
let drain t ~max =
  if max < 0 then invalid_arg "Admission.drain: negative max";
  let out = ref [] in
  let taken = ref 0 in
  let continue = ref (max > 0 && t.size > 0) in
  while !continue do
    let swept = ref 0 in
    let progressed = ref false in
    let n_tenants = List.length t.tenants in
    while !taken < max && t.size > 0 && !swept < n_tenants do
      match t.tenants with
      | [] -> swept := n_tenants
      | tenant :: rest ->
          t.tenants <- rest @ [ tenant ];
          incr swept;
          (match Hashtbl.find_opt t.queues tenant with
          | None -> ()
          | Some q -> (
              match Queue.pop q with
              | exception Queue.Empty -> ()
              | e ->
                  t.size <- t.size - 1;
                  incr taken;
                  progressed := true;
                  let s = stat_for t tenant in
                  s.drained <- s.drained + 1;
                  out := (e.request, e.enq_tick) :: !out))
    done;
    continue := !progressed && !taken < max && t.size > 0
  done;
  List.rev !out

let tenant_stats t =
  List.sort compare
    (Hashtbl.fold
       (fun tenant s acc -> (tenant, (s.admitted, s.shed, s.drained)) :: acc)
       t.stats [])

(* ------------------------------------------------------------------ *)
(* Freeze/thaw.                                                        *)

type frozen = {
  fz_next_seq : int;
  fz_tenants : string list;  (* rotation order at freeze time *)
  fz_queues : (string * (int * int * Request.t) list) list;
      (* per tenant in rotation order; entries (seq, enq_tick, request)
         in queue order *)
  fz_stats : (string * (int * int * int)) list;  (* tenant-sorted *)
}

let freeze t =
  {
    fz_next_seq = t.next_seq;
    fz_tenants = t.tenants;
    fz_queues =
      List.map
        (fun tenant ->
          let entries =
            match Hashtbl.find_opt t.queues tenant with
            | None -> []
            | Some q ->
                List.rev
                  (Queue.fold
                     (fun acc e -> (e.seq, e.enq_tick, e.request) :: acc)
                     [] q)
          in
          (tenant, entries))
        t.tenants;
    fz_stats = tenant_stats t;
  }

let thaw ~capacity ~policy fz =
  let t = create ~capacity ~policy in
  t.next_seq <- fz.fz_next_seq;
  List.iter
    (fun (tenant, entries) ->
      let q = queue_for t tenant in
      List.iter
        (fun (seq, enq_tick, request) ->
          Queue.push { seq; enq_tick; request } q;
          t.size <- t.size + 1)
        entries)
    fz.fz_queues;
  (* queue_for appended tenants in fz_queues order = rotation order *)
  List.iter
    (fun (tenant, (admitted, shed, drained)) ->
      let s = stat_for t tenant in
      s.admitted <- admitted;
      s.shed <- shed;
      s.drained <- drained)
    fz.fz_stats;
  t
