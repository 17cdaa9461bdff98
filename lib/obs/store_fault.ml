module Prng = Nu_stats.Prng

type kind = Torn_write | Bit_flip | Short_read | Enospc | Fsync_loss | Kill

let kind_name = function
  | Torn_write -> "torn_write"
  | Bit_flip -> "bit_flip"
  | Short_read -> "short_read"
  | Enospc -> "enospc"
  | Fsync_loss -> "fsync_loss"
  | Kill -> "kill"

type fault = { at_op : int; kind : kind; knob : float }
type plan = fault list

type config = {
  n_faults : int;
  ops_span : int;
  w_torn : float;
  w_flip : float;
  w_short : float;
  w_enospc : float;
  w_fsync_loss : float;
  w_kill : float;
}

let default_config =
  {
    n_faults = 8;
    ops_span = 240;
    w_torn = 3.0;
    w_flip = 2.0;
    w_short = 1.0;
    w_enospc = 1.0;
    w_fsync_loss = 1.0;
    w_kill = 2.0;
  }

let weights c =
  [
    (Torn_write, c.w_torn);
    (Bit_flip, c.w_flip);
    (Short_read, c.w_short);
    (Enospc, c.w_enospc);
    (Fsync_loss, c.w_fsync_loss);
    (Kill, c.w_kill);
  ]

let pick_kind rng c total =
  let x = ref (Prng.unit_float rng *. total) in
  let rec go = function
    | [] -> Kill
    | (k, w) :: rest ->
        if !x < w then k
        else begin
          x := !x -. w;
          go rest
        end
  in
  go (weights c)

let generate ?(config = default_config) ~seed () =
  if config.n_faults < 0 then invalid_arg "Store_fault.generate: n_faults < 0";
  if config.ops_span < 1 then invalid_arg "Store_fault.generate: ops_span < 1";
  let total = List.fold_left (fun a (_, w) -> a +. w) 0.0 (weights config) in
  if List.exists (fun (_, w) -> w < 0.0) (weights config) || total <= 0.0 then
    invalid_arg "Store_fault.generate: weights must be >= 0 and sum > 0";
  let rng = Prng.create seed in
  let base =
    List.init config.n_faults (fun _ ->
        let at_op = 1 + Prng.int rng config.ops_span in
        let kind = pick_kind rng config total in
        let knob = Prng.unit_float rng in
        { at_op; kind; knob })
  in
  (* A lost sync only materialises if a crash happens before the next
     good sync re-persists everything; pair every fsync loss with a
     kill a few operations later. *)
  let companions =
    List.filter_map
      (fun f ->
        match f.kind with
        | Fsync_loss ->
            Some { at_op = f.at_op + 2 + Prng.int rng 4; kind = Kill; knob = 0.0 }
        | _ -> None)
      base
  in
  List.stable_sort (fun a b -> compare a.at_op b.at_op) (base @ companions)

let fault_to_json f =
  Json.Obj
    [
      ("at_op", Json.Int f.at_op);
      ("kind", Json.String (kind_name f.kind));
      ("knob", Json.Float f.knob);
    ]

let plan_to_json p = Json.List (List.map fault_to_json p)

exception Crash of string
exception Store_error of string

(* Per-file durability model: [written] bytes are on disk, [durable]
   survived the last honest fsync. A lost sync sets [lost]; the next
   crash truncates the file back to [durable]. A later honest sync
   clears the loss (the OS really flushed this time). *)
type file = { mutable written : int; mutable durable : int; mutable lost : bool }

type t = {
  mutable plan : plan;
  mutable op : int;
  mutable log : (int * string) list;  (* newest first *)
  files : (string, file) Hashtbl.t;
}

let create plan = { plan; op = 0; log = []; files = Hashtbl.create 8 }
let ops t = t.op
let pending t = t.plan
let fired t = List.rev t.log
let fired_count t = List.length t.log

let to_json t =
  Json.Obj
    [
      ("ops", Json.Int t.op);
      ( "fired",
        Json.List
          (List.map
             (fun (op, what) ->
               Json.Obj [ ("op", Json.Int op); ("what", Json.String what) ])
             (fired t)) );
      ("pending", plan_to_json t.plan);
    ]

let file_for t path =
  match Hashtbl.find_opt t.files path with
  | Some f -> f
  | None ->
      let f = { written = 0; durable = 0; lost = false } in
      Hashtbl.add t.files path f;
      f

let register t ~path ~size =
  Hashtbl.replace t.files path { written = size; durable = size; lost = false }

let note_written t ~path n =
  let f = file_for t path in
  f.written <- f.written + n

let note_rename t ~src ~dst =
  match Hashtbl.find_opt t.files src with
  | None -> ()
  | Some f ->
      Hashtbl.remove t.files src;
      Hashtbl.replace t.files dst f

let crash t ~reason =
  Hashtbl.iter
    (fun path f ->
      if f.lost && f.written > f.durable then begin
        (try Unix.truncate path f.durable with Unix.Unix_error _ | Sys_error _ -> ());
        f.written <- f.durable;
        f.lost <- false
      end)
    t.files;
  raise (Crash reason)

(* Advance the op counter and pop the first *applicable* due fault, so
   a fault armed for an operation type that is not happening right now
   (e.g. a short read while only appends run) waits for the next
   applicable operation instead of being silently dropped. *)
let due t applicable =
  t.op <- t.op + 1;
  let rec split acc = function
    | [] -> None
    | f :: rest ->
        if f.at_op <= t.op && List.mem f.kind applicable then begin
          t.plan <- List.rev_append acc rest;
          Some f
        end
        else split (f :: acc) rest
  in
  split [] t.plan

let fire t what = t.log <- (t.op, what) :: t.log

let flip_bit data knob =
  let len = String.length data in
  let bit = int_of_float (knob *. float_of_int (len * 8)) mod (len * 8) in
  let b = Bytes.of_string data in
  let i = bit / 8 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))));
  Bytes.to_string b

type write_verdict = Write of string | Torn of string

let on_append t ~path data =
  match due t [ Torn_write; Bit_flip; Enospc; Kill ] with
  | None -> Write data
  | Some { kind = Kill; _ } ->
      fire t (Printf.sprintf "kill before append %s" path);
      crash t ~reason:"injected kill"
  | Some { kind = Enospc; _ } ->
      fire t (Printf.sprintf "enospc appending %s" path);
      raise (Store_error (Printf.sprintf "ENOSPC: cannot append to %s" path))
  | Some { kind = Torn_write; knob; _ } ->
      let keep = int_of_float (knob *. float_of_int (String.length data)) in
      let keep = max 0 (min keep (String.length data)) in
      fire t
        (Printf.sprintf "torn write %s: %d of %d byte(s)" path keep
           (String.length data));
      Torn (String.sub data 0 keep)
  | Some { kind = Bit_flip; knob; _ } ->
      if data = "" then Write data
      else begin
        fire t (Printf.sprintf "bit flip in append to %s" path);
        Write (flip_bit data knob)
      end
  | Some { kind = Short_read | Fsync_loss; _ } ->
      (* unreachable: filtered by [applicable] *)
      Write data

let on_sync t ~path =
  match due t [ Fsync_loss; Kill ] with
  | None ->
      let f = file_for t path in
      f.durable <- f.written;
      f.lost <- false
  | Some { kind = Kill; _ } ->
      fire t (Printf.sprintf "kill before fsync %s" path);
      crash t ~reason:"injected kill"
  | Some { kind = Fsync_loss; _ } ->
      fire t (Printf.sprintf "fsync loss on %s" path);
      (file_for t path).lost <- true
  | Some _ -> ()

let on_read t ~path data =
  match due t [ Short_read; Bit_flip ] with
  | None -> data
  | Some { kind = Short_read; knob; _ } ->
      let keep = int_of_float (knob *. float_of_int (String.length data)) in
      let keep = max 0 (min keep (String.length data)) in
      fire t
        (Printf.sprintf "short read %s: %d of %d byte(s)" path keep
           (String.length data));
      String.sub data 0 keep
  | Some { kind = Bit_flip; knob; _ } ->
      if data = "" then data
      else begin
        fire t (Printf.sprintf "bit flip reading %s" path);
        flip_bit data knob
      end
  | Some _ -> data
