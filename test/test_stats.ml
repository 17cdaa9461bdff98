(* nu_stats: PRNG, distributions, descriptive statistics, CDF. *)

let check_float = Alcotest.(check (float 1e-9))
let check_approx msg tolerance expected actual =
  Alcotest.(check (float tolerance)) msg expected actual

(* ------------------------------------------------------------------ *)
(* Prng                                                                *)

let test_prng_determinism () =
  let a = Prng.create 123 and b = Prng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Prng.bits64 a <> Prng.bits64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_prng_split_independent () =
  let parent = Prng.create 7 in
  let child = Prng.split parent in
  let xs = List.init 50 (fun _ -> Prng.bits64 parent) in
  let ys = List.init 50 (fun _ -> Prng.bits64 child) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let test_prng_int_bounds_invalid () =
  let rng = Prng.create 1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int rng 0))

let test_prng_int_in () =
  let rng = Prng.create 5 in
  for _ = 1 to 500 do
    let v = Prng.int_in rng 10 20 in
    Alcotest.(check bool) "in range" true (v >= 10 && v <= 20)
  done

let test_prng_int_in_covers_endpoints () =
  let rng = Prng.create 5 in
  let seen = Array.make 3 false in
  for _ = 1 to 500 do
    seen.(Prng.int_in rng 0 2) <- true
  done;
  Alcotest.(check bool) "all values reached" true (Array.for_all Fun.id seen)

let test_prng_unit_float () =
  let rng = Prng.create 11 in
  for _ = 1 to 500 do
    let v = Prng.unit_float rng in
    Alcotest.(check bool) "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_prng_float_in () =
  let rng = Prng.create 11 in
  for _ = 1 to 200 do
    let v = Prng.float_in rng (-2.0) 3.0 in
    Alcotest.(check bool) "in range" true (v >= -2.0 && v < 3.0)
  done

let test_prng_shuffle_permutation () =
  let rng = Prng.create 3 in
  let a = Array.init 30 Fun.id in
  let b = Array.copy a in
  Prng.shuffle rng b;
  let sorted = Array.copy b in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" a sorted

let test_prng_sample_without_replacement () =
  let rng = Prng.create 9 in
  for _ = 1 to 50 do
    let picks = Prng.sample_without_replacement rng 5 20 in
    Alcotest.(check int) "count" 5 (List.length picks);
    Alcotest.(check int) "distinct" 5
      (List.length (List.sort_uniq compare picks));
    List.iter
      (fun p -> Alcotest.(check bool) "in range" true (p >= 0 && p < 20))
      picks
  done

let test_prng_sample_all_when_k_ge_n () =
  let rng = Prng.create 9 in
  let picks = Prng.sample_without_replacement rng 10 4 in
  Alcotest.(check (list int)) "whole range" [ 0; 1; 2; 3 ]
    (List.sort compare picks)

let test_prng_choose () =
  let rng = Prng.create 2 in
  let arr = [| "a"; "b"; "c" |] in
  for _ = 1 to 50 do
    let v = Prng.choose rng arr in
    Alcotest.(check bool) "member" true (Array.exists (( = ) v) arr)
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Prng.choose: empty array")
    (fun () -> ignore (Prng.choose rng [||]))

(* Checkpointing captures a PRNG as its raw SplitMix64 cursor; a stream
   rebuilt from that cursor must be indistinguishable from the one that
   kept running. *)
let test_prng_raw_state_roundtrip () =
  let rng = Prng.create 97 in
  for _ = 1 to 37 do
    ignore (Prng.bits64 rng)
  done;
  let resumed = Prng.of_raw_state (Prng.raw_state rng) in
  for i = 1 to 100 do
    Alcotest.(check int64)
      (Printf.sprintf "draw %d" i)
      (Prng.bits64 rng) (Prng.bits64 resumed)
  done

let prop_int_within_bound =
  QCheck.Test.make ~name:"prng int stays within bound" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Prng.create seed in
      let v = Prng.int rng bound in
      v >= 0 && v < bound)

(* ------------------------------------------------------------------ *)
(* Dist                                                                *)

let mean_of n f =
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. f ()
  done;
  !acc /. float_of_int n

let test_exponential_mean () =
  let rng = Prng.create 4 in
  let m = mean_of 20_000 (fun () -> Dist.exponential rng ~rate:2.0) in
  check_approx "mean 1/rate" 0.02 0.5 m

let test_exponential_positive () =
  let rng = Prng.create 4 in
  for _ = 1 to 1000 do
    Alcotest.(check bool) "positive" true (Dist.exponential rng ~rate:0.5 > 0.0)
  done

let test_exponential_invalid () =
  let rng = Prng.create 4 in
  Alcotest.check_raises "rate 0"
    (Invalid_argument "Dist.exponential: rate must be positive") (fun () ->
      ignore (Dist.exponential rng ~rate:0.0))

let test_bounded_pareto_range () =
  let rng = Prng.create 8 in
  for _ = 1 to 2000 do
    let v = Dist.bounded_pareto rng ~shape:1.1 ~lo:1.0 ~hi:400.0 in
    Alcotest.(check bool) "in bounds" true (v >= 1.0 && v <= 400.0 +. 1e-9)
  done

let test_bounded_pareto_skew () =
  (* Heavy tail: the median must sit far below the midpoint. *)
  let rng = Prng.create 8 in
  let samples = Array.init 5000 (fun _ ->
      Dist.bounded_pareto rng ~shape:1.1 ~lo:1.0 ~hi:400.0) in
  let median = Descriptive.percentile samples 50.0 in
  Alcotest.(check bool) "median below 5" true (median < 5.0)

let test_lognormal_positive_median () =
  let rng = Prng.create 10 in
  let samples = Array.init 20_000 (fun _ -> Dist.lognormal rng ~mu:(log 30.0) ~sigma:1.0) in
  Array.iter (fun v -> assert (v > 0.0)) samples;
  let median = Descriptive.percentile samples 50.0 in
  check_approx "median e^mu" 2.0 30.0 median

(* The Gaussian draw behind [lognormal]: log-samples have its moments. *)
let test_normal_moments () =
  let rng = Prng.create 12 in
  let samples =
    Array.init 30_000 (fun _ -> log (Dist.lognormal rng ~mu:5.0 ~sigma:2.0))
  in
  check_approx "mean" 0.05 5.0 (Descriptive.mean samples);
  let var =
    Descriptive.mean (Array.map (fun x -> (x -. 5.0) *. (x -. 5.0)) samples)
  in
  check_approx "stddev" 0.05 2.0 (sqrt var)

(* ------------------------------------------------------------------ *)
(* Descriptive                                                         *)

let test_mean_total () =
  check_float "mean" 2.5 (Descriptive.mean [| 1.0; 2.0; 3.0; 4.0 |]);
  (* Kahan summation: naive left-to-right addition loses the ones. *)
  check_float "compensated sum" 1.0
    (Descriptive.mean [| 1e16; 1.0; 1.0; -1e16 |] *. 2.0)

let test_empty_raises () =
  Alcotest.check_raises "mean" (Invalid_argument "Descriptive.mean: empty")
    (fun () -> ignore (Descriptive.mean [||]))

let test_percentiles () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_float "median interpolates" 2.5 (Descriptive.percentile xs 50.0);
  check_float "p0 = min" 1.0 (Descriptive.percentile xs 0.0);
  check_float "p100 = max" 4.0 (Descriptive.percentile xs 100.0);
  check_float "p25" 1.75 (Descriptive.percentile xs 25.0)

let test_percentile_unsorted_input () =
  let xs = [| 4.0; 1.0; 3.0; 2.0 |] in
  check_float "sorts internally" 2.5 (Descriptive.percentile xs 50.0);
  Alcotest.(check (float 0.0)) "input untouched" 4.0 xs.(0)

let test_reduction_speedup () =
  check_float "reduction" 0.75 (Descriptive.reduction_vs ~baseline:4.0 1.0)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile is monotone in p" ~count:200
    QCheck.(
      pair
        (array_of_size (Gen.int_range 1 50) (float_range (-100.) 100.))
        (pair (float_range 0. 100.) (float_range 0. 100.)))
    (fun (xs, (p1, p2)) ->
      let lo = min p1 p2 and hi = max p1 p2 in
      Descriptive.percentile xs lo <= Descriptive.percentile xs hi +. 1e-9)

let prop_mean_between_min_max =
  QCheck.Test.make ~name:"mean lies within [min,max]" ~count:200
    QCheck.(array_of_size (Gen.int_range 1 50) (float_range (-1000.) 1000.))
    (fun xs ->
      let m = Descriptive.mean xs in
      m >= Array.fold_left min xs.(0) xs -. 1e-6
      && m <= Descriptive.max_value xs +. 1e-6)

(* ------------------------------------------------------------------ *)
(* Cdf                                                                 *)

let test_cdf_inverse () =
  let c = Cdf.of_samples [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check string) "quantiles" "cdf[n=4 p10=1 p50=2 p90=4 p99=4 max=4]"
    (Format.asprintf "%a" Cdf.pp c)

let test_cdf_size () =
  let s = Format.asprintf "%a" Cdf.pp (Cdf.of_samples [| 1.; 2.; 3. |]) in
  Alcotest.(check string) "size" "cdf[n=3" (String.sub s 0 7)

let suite =
  [
    ("prng determinism", `Quick, test_prng_determinism);
    ("prng seed sensitivity", `Quick, test_prng_seed_sensitivity);
    ("prng split", `Quick, test_prng_split_independent);
    ("prng int invalid", `Quick, test_prng_int_bounds_invalid);
    ("prng int_in range", `Quick, test_prng_int_in);
    ("prng int_in endpoints", `Quick, test_prng_int_in_covers_endpoints);
    ("prng unit_float", `Quick, test_prng_unit_float);
    ("prng float_in", `Quick, test_prng_float_in);
    ("prng shuffle", `Quick, test_prng_shuffle_permutation);
    ("prng sampling", `Quick, test_prng_sample_without_replacement);
    ("prng sampling k>=n", `Quick, test_prng_sample_all_when_k_ge_n);
    ("prng choose", `Quick, test_prng_choose);
    ("prng raw state round-trip", `Quick, test_prng_raw_state_roundtrip);
    QCheck_alcotest.to_alcotest prop_int_within_bound;
    ("exponential mean", `Slow, test_exponential_mean);
    ("exponential positive", `Quick, test_exponential_positive);
    ("exponential invalid", `Quick, test_exponential_invalid);
    ("bounded pareto range", `Quick, test_bounded_pareto_range);
    ("bounded pareto skew", `Quick, test_bounded_pareto_skew);
    ("lognormal median", `Slow, test_lognormal_positive_median);
    ("normal moments", `Slow, test_normal_moments);
    ("mean/total", `Quick, test_mean_total);
    ("empty raises", `Quick, test_empty_raises);
    ("percentiles", `Quick, test_percentiles);
    ("percentile input untouched", `Quick, test_percentile_unsorted_input);
    ("reduction/speedup", `Quick, test_reduction_speedup);
    QCheck_alcotest.to_alcotest prop_percentile_monotone;
    QCheck_alcotest.to_alcotest prop_mean_between_min_max;
    ("cdf inverse", `Quick, test_cdf_inverse);
    ("cdf size", `Quick, test_cdf_size);
  ]
