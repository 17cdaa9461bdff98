type policy = Block

(* [seq] orders admissions globally; nothing reads it back, but
   checkpoints carry it, so it stays part of the queue state. *)
type entry = { seq : int; enq_tick : int; request : Request.t }
type stat = { mutable admitted : int; mutable drained : int }

type t = {
  capacity : int;
  mutable tenants : string list;  (* drain rotation, head drains next *)
  queues : (string, entry Queue.t) Hashtbl.t;
  stats : (string, stat) Hashtbl.t;
  mutable size : int;
  mutable next_seq : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Admission.create: capacity must be > 0";
  {
    capacity;
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
      let s = { admitted = 0; drained = 0 } in
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

type outcome = Admitted | Deferred

let offer t ~tick req =
  let st = stat_for t req.Request.tenant in
  if t.size < t.capacity then begin
    let q = queue_for t req.Request.tenant in
    Queue.push { seq = t.next_seq; enq_tick = tick; request = req } q;
    t.next_seq <- t.next_seq + 1;
    t.size <- t.size + 1;
    st.admitted <- st.admitted + 1;
    Admitted
  end
  else Deferred

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
       (fun tenant s acc -> (tenant, (s.admitted, s.drained)) :: acc)
       t.stats [])

(* ------------------------------------------------------------------ *)
(* Freeze/thaw.                                                        *)

type frozen = {
  fz_next_seq : int;
  fz_tenants : string list;  (* rotation order at freeze time *)
  fz_queues : (string * (int * int * Request.t) list) list;
      (* per tenant in rotation order; entries (seq, enq_tick, request)
         in queue order *)
  fz_stats : (string * (int * int)) list;  (* tenant-sorted *)
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

let thaw ~capacity fz =
  let t = create ~capacity in
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
    (fun (tenant, (admitted, drained)) ->
      let s = stat_for t tenant in
      s.admitted <- admitted;
      s.drained <- drained)
    fz.fz_stats;
  t
