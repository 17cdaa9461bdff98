(* The benchmark's own test:

     check_output.exe BENCHMARK.json ledger.json perfbench.exe

   runs a minimal-size (--smoke) instance of every workload declared in
   BENCHMARK.json in both modes and requires the last stdout line to be
   the result object carrying exactly the declared metrics with their
   units; requires every per-layer metric to have its ledger entry; and
   requires a run with a wrong expected digest to exit non-zero without
   printing a result. *)

module Json = Core.Obs.Json

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun m ->
      incr failures;
      prerr_endline ("check_output: " ^ m))
    fmt

let read path = In_channel.with_open_bin path In_channel.input_all

let parse what text =
  match Json.of_string text with
  | Ok j -> j
  | Error e ->
      Printf.eprintf "check_output: %s: %s\n" what e;
      exit 1

let member k j = Option.value (Json.member k j) ~default:Json.Null
let list = function Json.List l -> l | _ -> []
let string = function Json.String s -> s | _ -> ""

(* (name, unit) of each declared metric in a BENCHMARK.json section. *)
let declared bench section =
  List.map
    (fun m -> (string (member "name" m), string (member "unit" m)))
    (list (member section bench))

(* dune passes the benchmark as a bare file name, which the shell would
   look up on PATH. *)
let run exe args =
  let exe =
    if Filename.is_relative exe then Filename.concat (Sys.getcwd ()) exe else exe
  in
  let out = "smoke.out" in
  let cmd =
    Filename.quote_command exe ~stdout:out ~stderr:Filename.null
      (args @ [ "--smoke"; "--state-dir"; "smoke-state"; "--seconds"; "1" ])
  in
  let code = Sys.command cmd in
  let lines = String.split_on_char '\n' (String.trim (read out)) in
  Sys.remove out;
  (code, List.nth_opt (List.rev lines) 0)

let check_result ~what ~metrics line =
  let j = parse what line in
  (match j with
  | Json.Obj fields ->
      let keys = List.sort compare (List.map fst fields) in
      if keys <> [ "attempted"; "correct"; "failed"; "metrics" ] then
        fail "%s: result keys %s" what (String.concat "," keys)
  | _ -> fail "%s: result is not an object" what);
  if member "correct" j <> Json.Bool true then fail "%s: correct is not true" what;
  (match (member "attempted" j, member "failed" j) with
  | Json.Int a, Json.Int f when a >= 1 && f >= 0 && f <= a -> ()
  | _ -> fail "%s: attempted/failed are not counts with attempted >= 1" what);
  match member "metrics" j with
  | Json.Obj got ->
      if List.length got <> List.length metrics then
        fail "%s: %d metrics printed, %d declared" what (List.length got)
          (List.length metrics);
      List.iter
        (fun (name, unit) ->
          match List.assoc_opt name got with
          | None -> fail "%s: metric %s missing" what name
          | Some m -> (
              if string (member "unit" m) <> unit then
                fail "%s: metric %s has unit %S, declared %S" what name
                  (string (member "unit" m))
                  unit;
              match member "value" m with
              | Json.Int _ | Json.Float _ -> ()
              | _ -> fail "%s: metric %s has no numeric value" what name))
        metrics
  | _ -> fail "%s: metrics is not an object" what

let () =
  let bench_path, ledger_path, exe =
    match Sys.argv with
    | [| _; b; l; e |] -> (b, l, e)
    | _ ->
        prerr_endline "usage: check_output BENCHMARK.json ledger.json perfbench.exe";
        exit 2
  in
  let bench = parse bench_path (read bench_path) in
  let ledger = parse ledger_path (read ledger_path) in
  let e2e = declared bench "end_to_end" and layers = declared bench "per_layer" in
  let ledger_names =
    List.map (fun m -> string (member "name" m)) (list (member "per_layer" ledger))
  in
  List.iter
    (fun (name, _) ->
      if not (List.mem name ledger_names) then
        fail "per-layer metric %s has no ledger entry" name)
    layers;
  List.iter
    (fun name ->
      if not (List.mem_assoc name layers) then
        fail "ledger entry %s is not a declared per-layer metric" name)
    ledger_names;
  let workloads =
    List.map (fun w -> string (member "name" w)) (list (member "workloads" bench))
  in
  List.iter
    (fun w ->
      List.iter
        (fun (trace, metrics) ->
          let what = Printf.sprintf "%s --trace %s" w trace in
          match run exe [ "--workload"; w; "--seed"; "3"; "--trace"; trace ] with
          | 0, Some line -> check_result ~what ~metrics line
          | code, _ -> fail "%s: exit %d" what code)
        [ ("0", e2e); ("1", layers) ])
    workloads;
  (match
     run exe
       [
         "--workload"; List.hd workloads; "--seed"; "3"; "--trace"; "0";
         "--expect-digest"; "0000000000000000";
       ]
   with
  | 0, _ -> fail "a wrong expected digest still exited 0"
  | _, Some line when String.length line > 0 && line.[0] = '{' ->
      fail "a wrong expected digest still printed a result"
  | _ -> ());
  if !failures > 0 then exit 1;
  Printf.printf "check_output: %d workloads, %d end-to-end and %d per-layer metrics ok\n"
    (List.length workloads) (List.length e2e) (List.length layers)
