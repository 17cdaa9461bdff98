type t = {
  cols : string array;
  times : float array;  (* first [len] slots are live *)
  rows : float array array;
  mutable len : int;
  mutable stride : int;
  mutable countdown : int;  (* offers to drop before the next keep *)
  mutable total : int;
}

(* Even: decimation assumes the buffer-filling row sits at an odd slot
   (one old stride past the last even-grid row) so that halving drops
   it. *)
let capacity = 4096

let create ~columns () =
  if columns = [] then invalid_arg "Series.create: no columns";
  {
    cols = Array.of_list columns;
    times = Array.make capacity 0.0;
    rows = Array.make capacity [||];
    len = 0;
    stride = 1;
    countdown = 0;
    total = 0;
  }

(* Keep rows 0, 2, 4, ... — the decimated series stays anchored at the
   first sample and uniformly spaced at the doubled stride. *)
let decimate t =
  let kept = (t.len + 1) / 2 in
  for i = 0 to kept - 1 do
    t.times.(i) <- t.times.(2 * i);
    t.rows.(i) <- t.rows.(2 * i)
  done;
  t.len <- kept;
  t.stride <- t.stride * 2

let sample t ~t_s row =
  if Array.length row <> Array.length t.cols then
    invalid_arg "Series.sample: row length does not match columns";
  t.total <- t.total + 1;
  if t.countdown > 0 then t.countdown <- t.countdown - 1
  else begin
    t.times.(t.len) <- t_s;
    t.rows.(t.len) <- Array.copy row;
    t.len <- t.len + 1;
    if t.len >= capacity then begin
      (* The just-stored row sat one old stride past the last even-grid
         row and is dropped by the decimation; the next keep must land
         back on the (now doubled) grid, one old stride from here. *)
      decimate t;
      t.countdown <- (t.stride / 2) - 1
    end
    else t.countdown <- t.stride - 1
  end

let to_json t =
  let column j =
    Json.List (List.init t.len (fun i -> Json.Float t.rows.(i).(j)))
  in
  Json.Obj
    [
      ( "columns",
        Json.List (Array.to_list (Array.map (fun c -> Json.String c) t.cols))
      );
      ("stride", Json.Int t.stride);
      ("total_samples", Json.Int t.total);
      ("t_s", Json.List (List.init t.len (fun i -> Json.Float t.times.(i))));
      ( "data",
        Json.Obj (List.mapi (fun j c -> (c, column j)) (Array.to_list t.cols))
      );
    ]

(* Shortest decimal that round-trips (mirrors Json.float_repr). *)
let float_repr f =
  let s = Printf.sprintf "%.15g" f in
  if float_of_string s = f then s else Printf.sprintf "%.17g" f

let to_csv t =
  let buf = Buffer.create (256 + (t.len * 32)) in
  Buffer.add_string buf "t_s";
  Array.iter
    (fun c ->
      Buffer.add_char buf ',';
      Buffer.add_string buf c)
    t.cols;
  Buffer.add_char buf '\n';
  for i = 0 to t.len - 1 do
    Buffer.add_string buf (float_repr t.times.(i));
    Array.iter
      (fun v ->
        Buffer.add_char buf ',';
        Buffer.add_string buf (float_repr v))
      t.rows.(i);
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf
