(* Log-bucketed streaming histogram. A positive value v = m * 2^e
   (frexp, m in [0.5, 1)) lands in bucket e * sub + floor((m - 0.5) * 2
   * sub): octave e split into [sub] linear sub-buckets. Bucket width
   is at most 1/sub of the bucket's lower bound, which bounds the
   relative quantile error. Zero has its own exact bucket. *)

type t = {
  sub : int;
  buckets : (int, int ref) Hashtbl.t;
  mutable zero : int;  (* exact count of 0.0 samples *)
  mutable n : int;
  mutable sum : float;
  mutable minv : float;
  mutable maxv : float;
}

let create ?(sub_buckets = 64) () =
  if sub_buckets < 1 then invalid_arg "Histogram.create: sub_buckets < 1";
  {
    sub = sub_buckets;
    buckets = Hashtbl.create 64;
    zero = 0;
    n = 0;
    sum = 0.0;
    minv = infinity;
    maxv = neg_infinity;
  }

let count t = t.n
let sum t = t.sum
let is_empty t = t.n = 0

let check_nonempty fn t =
  if t.n = 0 then invalid_arg ("Histogram." ^ fn ^ ": empty")

let mean t =
  check_nonempty "mean" t;
  t.sum /. float_of_int t.n

let min_value t =
  check_nonempty "min_value" t;
  t.minv

let max_value t =
  check_nonempty "max_value" t;
  t.maxv

let bucket_id t v =
  let m, e = Float.frexp v in
  (e * t.sub) + int_of_float ((m -. 0.5) *. 2.0 *. float_of_int t.sub)

(* Euclidean decomposition of id = e * sub + si with si in [0, sub). *)
let bucket_bounds t id =
  let e = if id >= 0 then id / t.sub else -(((-id) + t.sub - 1) / t.sub) in
  let si = id - (e * t.sub) in
  let lo = Float.ldexp (0.5 +. (float_of_int si /. float_of_int (2 * t.sub))) e in
  let hi =
    Float.ldexp (0.5 +. (float_of_int (si + 1) /. float_of_int (2 * t.sub))) e
  in
  (lo, hi)

let record t v =
  if not (Float.is_finite v) || v < 0.0 then
    invalid_arg "Histogram.record: sample must be finite and non-negative";
  if v = 0.0 then t.zero <- t.zero + 1
  else begin
    let id = bucket_id t v in
    match Hashtbl.find_opt t.buckets id with
    | Some r -> incr r
    | None -> Hashtbl.add t.buckets id (ref 1)
  end;
  t.n <- t.n + 1;
  t.sum <- t.sum +. v;
  if v < t.minv then t.minv <- v;
  if v > t.maxv then t.maxv <- v

(* Occupied buckets sorted ascending by id; the zero bucket, when
   occupied, sorts first under the sentinel id [min_int]. *)
let sorted_buckets t =
  let l =
    Hashtbl.fold (fun id r acc -> (id, !r) :: acc) t.buckets []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  if t.zero > 0 then (min_int, t.zero) :: l else l

let representative t (id, _count) =
  if id = min_int then 0.0
  else begin
    let lo, hi = bucket_bounds t id in
    0.5 *. (lo +. hi)
  end

let quantile t q =
  check_nonempty "quantile" t;
  if q < 0.0 || q > 1.0 then invalid_arg "Histogram.quantile: q outside [0,1]";
  let sorted = sorted_buckets t in
  (* Value of the k-th (0-based) smallest sample, as its bucket's
     midpoint. *)
  let value_at k =
    let rec walk seen = function
      | [] -> t.maxv (* unreachable for k < n *)
      | ((_, c) as b) :: rest ->
          if k < seen + c then representative t b else walk (seen + c) rest
    in
    walk 0 sorted
  in
  let rank = q *. float_of_int (t.n - 1) in
  let lo = int_of_float (floor rank) in
  let hi = int_of_float (ceil rank) in
  let est =
    if lo = hi then value_at lo
    else begin
      let frac = rank -. float_of_int lo in
      let vlo = value_at lo and vhi = value_at hi in
      vlo +. (frac *. (vhi -. vlo))
    end
  in
  (* Min and max are exact; clamping never hurts the error bound. *)
  Float.min t.maxv (Float.max t.minv est)

let p50 t = quantile t 0.50
let p90 t = quantile t 0.90
let p99 t = quantile t 0.99
let p999 t = quantile t 0.999

let buckets t =
  List.map
    (fun (id, c) ->
      if id = min_int then (0.0, 0.0, c)
      else begin
        let lo, hi = bucket_bounds t id in
        (lo, hi, c)
      end)
    (sorted_buckets t)

let copy t =
  {
    t with
    buckets =
      (let h = Hashtbl.create (Hashtbl.length t.buckets) in
       Hashtbl.iter (fun id r -> Hashtbl.add h id (ref !r)) t.buckets;
       h);
  }

let merge a b =
  if a.sub <> b.sub then invalid_arg "Histogram.merge: sub_buckets mismatch";
  let t = copy a in
  Hashtbl.iter
    (fun id r ->
      match Hashtbl.find_opt t.buckets id with
      | Some acc -> acc := !acc + !r
      | None -> Hashtbl.add t.buckets id (ref !r))
    b.buckets;
  t.zero <- t.zero + b.zero;
  t.n <- t.n + b.n;
  t.sum <- t.sum +. b.sum;
  t.minv <- Float.min t.minv b.minv;
  t.maxv <- Float.max t.maxv b.maxv;
  t

let to_json t =
  let q f = if t.n = 0 then Json.Null else Json.Float (f t) in
  Json.Obj
    [
      ("count", Json.Int t.n);
      ("sum", Json.Float (if t.n = 0 then 0.0 else t.sum));
      ("min", q min_value);
      ("max", q max_value);
      ("mean", q mean);
      ("p50", q p50);
      ("p90", q p90);
      ("p99", q p99);
      ("p999", q p999);
      ("sub_buckets", Json.Int t.sub);
      ( "buckets",
        Json.List
          (List.map
             (fun (id, c) ->
               let lo, hi =
                 if id = min_int then (0.0, 0.0) else bucket_bounds t id
               in
               Json.List [ Json.Float lo; Json.Float hi; Json.Int c ])
             (sorted_buckets t)) );
    ]

let pp ppf t =
  if t.n = 0 then Format.fprintf ppf "empty"
  else
    Format.fprintf ppf
      "n=%d mean=%.4g p50=%.4g p90=%.4g p99=%.4g p999=%.4g max=%.4g" t.n
      (mean t) (p50 t) (p90 t) (p99 t) (p999 t) t.maxv

module Registry = struct
  let on = ref false
  let table : (string, t) Hashtbl.t = Hashtbl.create 16

  (* Worker domains see the registry as off: the table is a
     single-writer structure owned by the main domain. *)
  let enabled () = !on && not (Obs_domain.in_worker ())
  let enable () = on := true
  let disable () = on := false

  let record name v =
    if !on && not (Obs_domain.in_worker ()) then begin
      let h =
        match Hashtbl.find_opt table name with
        | Some h -> h
        | None ->
            let h = create () in
            Hashtbl.add table name h;
            h
      in
      record h v
    end

  let snapshot () =
    Hashtbl.fold (fun name h acc -> (name, copy h) :: acc) table []
    |> List.sort (fun (a, _) (b, _) -> compare a b)

  let reset () = Hashtbl.reset table
end
