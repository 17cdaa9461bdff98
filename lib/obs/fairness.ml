(* Rolling per-tenant fairness metrics. Each tenant accumulates a
   cumulative ECT histogram plus a current-window histogram that is
   frozen into [last_window] and restarted every [window] ticks; Jain's
   index is computed over per-tenant mean ECTs. *)

type tenant = {
  t_name : string;
  ect : Histogram.t;  (* cumulative *)
  window_ect : Histogram.t;  (* current window, reset at rotation *)
  mutable admitted : int;
  mutable shed : int;
  mutable drained : int;
  mutable completed : int;
  mutable degraded : int;
}

type window_stat = { w_tenant : string; w_count : int; w_mean_ect_s : float }

(* The rotation period in ticks. *)
let window = 50

type t = {
  tenants : (string, tenant) Hashtbl.t;
  mutable tick_in_window : int;
  mutable windows : int;
  mutable last_window : window_stat list;  (* tenant-sorted *)
}

let create () =
  {
    tenants = Hashtbl.create 8;
    tick_in_window = 0;
    windows = 0;
    last_window = [];
  }

let windows_completed t = t.windows

let tenant t name =
  match Hashtbl.find_opt t.tenants name with
  | Some tn -> tn
  | None ->
      let tn =
        {
          t_name = name;
          ect = Histogram.create ();
          window_ect = Histogram.create ();
          admitted = 0;
          shed = 0;
          drained = 0;
          completed = 0;
          degraded = 0;
        }
      in
      Hashtbl.add t.tenants name tn;
      tn

let observe_admit t ~tenant:name =
  let tn = tenant t name in
  tn.admitted <- tn.admitted + 1

let observe_shed t ~tenant:name =
  let tn = tenant t name in
  tn.shed <- tn.shed + 1

let observe_drain t ~tenant:name =
  let tn = tenant t name in
  tn.drained <- tn.drained + 1

let observe_completion t ~tenant:name ~ect_s ~degraded =
  let tn = tenant t name in
  Histogram.record tn.ect ect_s;
  Histogram.record tn.window_ect ect_s;
  tn.completed <- tn.completed + 1;
  if degraded then tn.degraded <- tn.degraded + 1

let sorted_tenants t =
  Hashtbl.fold (fun _ tn acc -> tn :: acc) t.tenants []
  |> List.sort (fun a b -> compare a.t_name b.t_name)

let on_tick t =
  t.tick_in_window <- t.tick_in_window + 1;
  if t.tick_in_window >= window then begin
    t.last_window <-
      List.filter_map
        (fun tn ->
          if Histogram.is_empty tn.window_ect then None
          else
            Some
              {
                w_tenant = tn.t_name;
                w_count = Histogram.count tn.window_ect;
                w_mean_ect_s = Histogram.mean tn.window_ect;
              })
        (sorted_tenants t);
    Hashtbl.iter (fun _ tn -> Histogram.reset tn.window_ect) t.tenants;
    t.windows <- t.windows + 1;
    t.tick_in_window <- 0
  end

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

let window_jain_index t =
  jain (List.map (fun w -> w.w_mean_ect_s) t.last_window)

type tenant_view = {
  v_tenant : string;
  v_admitted : int;
  v_shed : int;
  v_drained : int;
  v_completed : int;
  v_degraded : int;
  v_shed_ratio : float;
  v_mean_ect_s : float option;
  v_p99_ect_s : float option;
}

let view_of tn =
  let offered = tn.admitted + tn.shed in
  {
    v_tenant = tn.t_name;
    v_admitted = tn.admitted;
    v_shed = tn.shed;
    v_drained = tn.drained;
    v_completed = tn.completed;
    v_degraded = tn.degraded;
    v_shed_ratio =
      (if offered = 0 then 0.0
       else float_of_int tn.shed /. float_of_int offered);
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
      ("window_ticks", Json.Int window);
      ("windows_completed", Json.Int t.windows);
      ("jain_index", opt_float (jain_index t));
      ("window_jain_index", opt_float (window_jain_index t));
      ( "tenants",
        Json.Obj
          (List.map
             (fun tn ->
               let v = view_of tn in
               ( tn.t_name,
                 Json.Obj
                   [
                     ("admitted", Json.Int v.v_admitted);
                     ("shed", Json.Int v.v_shed);
                     ("drained", Json.Int v.v_drained);
                     ("completed", Json.Int v.v_completed);
                     ("degraded", Json.Int v.v_degraded);
                     ("shed_ratio", Json.Float v.v_shed_ratio);
                     ("mean_ect_s", opt_float v.v_mean_ect_s);
                     ("p99_ect_s", opt_float v.v_p99_ect_s);
                     ("ect", Histogram.to_json tn.ect);
                   ] ))
             (sorted_tenants t)) );
      ( "last_window",
        Json.List
          (List.map
             (fun w ->
               Json.Obj
                 [
                   ("tenant", Json.String w.w_tenant);
                   ("count", Json.Int w.w_count);
                   ("mean_ect_s", Json.Float w.w_mean_ect_s);
                 ])
             t.last_window) );
    ]
