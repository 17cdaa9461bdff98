(* Per-tenant fairness accounting: one fold over lifecycle stages. Each
   tenant accumulates admission counts and a cumulative ECT histogram;
   Jain's index is computed over per-tenant mean ECTs. *)

type tenant = {
  t_name : string;
  ect : Histogram.t;
  mutable admitted : int;
  mutable drained : int;
  mutable completed : int;
  mutable degraded : int;
}

type t = { tenants : (string, tenant) Hashtbl.t }

let create () = { tenants = Hashtbl.create 8 }

let tenant t name =
  match Hashtbl.find_opt t.tenants name with
  | Some tn -> tn
  | None ->
      let tn =
        {
          t_name = name;
          ect = Histogram.create ();
          admitted = 0;
          drained = 0;
          completed = 0;
          degraded = 0;
        }
      in
      Hashtbl.add t.tenants name tn;
      tn

let complete tn ect_s =
  Histogram.record tn.ect ect_s;
  tn.completed <- tn.completed + 1

let observe t ~tenant:name (stage : Lifecycle.stage) =
  match stage with
  | Admitted ->
      let tn = tenant t name in
      tn.admitted <- tn.admitted + 1
  | Submitted _ ->
      let tn = tenant t name in
      tn.drained <- tn.drained + 1
  | Completed { ect_s } -> complete (tenant t name) ect_s
  | Degraded { ect_s; failed_items = _ } ->
      let tn = tenant t name in
      complete tn ect_s;
      tn.degraded <- tn.degraded + 1
  | Arrived | Deferred | Planned _ | Aborted _ | Retry_scheduled _ -> ()

let attribution = function "" -> "unknown" | tenant -> tenant

let of_log entries =
  let t = create () in
  List.iter
    (fun (e : Lifecycle.entry) ->
      observe t ~tenant:(attribution e.tenant) e.stage)
    entries;
  t

let sorted_tenants t =
  Hashtbl.fold (fun _ tn acc -> tn :: acc) t.tenants []
  |> List.sort (fun a b -> compare a.t_name b.t_name)

(* Jain's index (Sum x)^2 / (n * Sum x^2) over per-tenant values; 1 is
   perfect equality, 1/n is one tenant taking everything. All-zero
   values are defined as perfectly fair. *)
let jain = function
  | [] -> None
  | xs ->
      let n = float_of_int (List.length xs) in
      let s = List.fold_left ( +. ) 0.0 xs in
      let s2 = List.fold_left (fun acc x -> acc +. (x *. x)) 0.0 xs in
      if s2 = 0.0 then Some 1.0 else Some (s *. s /. (n *. s2))

let jain_index t =
  jain
    (List.filter_map
       (fun tn ->
         if Histogram.is_empty tn.ect then None else Some (Histogram.mean tn.ect))
       (sorted_tenants t))

type tenant_view = {
  v_tenant : string;
  v_admitted : int;
  v_drained : int;
  v_completed : int;
  v_degraded : int;
  v_mean_ect_s : float option;
  v_p99_ect_s : float option;
}

let view_of tn =
  {
    v_tenant = tn.t_name;
    v_admitted = tn.admitted;
    v_drained = tn.drained;
    v_completed = tn.completed;
    v_degraded = tn.degraded;
    v_mean_ect_s =
      (if Histogram.is_empty tn.ect then None else Some (Histogram.mean tn.ect));
    v_p99_ect_s =
      (if Histogram.is_empty tn.ect then None else Some (Histogram.p99 tn.ect));
  }

let view t = List.map view_of (sorted_tenants t)

let ect_histogram t name =
  Option.map (fun tn -> Histogram.copy tn.ect) (Hashtbl.find_opt t.tenants name)

let opt_float = function None -> Json.Null | Some f -> Json.Float f

let to_json t =
  Json.Obj
    [
      ("jain_index", opt_float (jain_index t));
      ( "tenants",
        Json.Obj
          (List.map
             (fun tn ->
               let v = view_of tn in
               ( tn.t_name,
                 Json.Obj
                   [
                     ("admitted", Json.Int v.v_admitted);
                     ("drained", Json.Int v.v_drained);
                     ("completed", Json.Int v.v_completed);
                     ("degraded", Json.Int v.v_degraded);
                     ("mean_ect_s", opt_float v.v_mean_ect_s);
                     ("p99_ect_s", opt_float v.v_p99_ect_s);
                     ("ect", Histogram.to_json tn.ect);
                   ] ))
             (sorted_tenants t)) );
    ]
