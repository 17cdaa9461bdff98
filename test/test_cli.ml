(* The experiments CLI contract: unknown subcommands and unknown flags
   must print usage and exit non-zero (cmdliner's parse-error status is
   124), and bad inputs to the serving subcommands must fail loudly.
   These tests exec the real binary (declared as a test dep, so it sits
   next to the test's cwd in _build). *)

let exe = Filename.concat ".." "bin/experiments.exe"

let run_capture args =
  let out = Filename.temp_file "nu_cli" ".txt" in
  let status =
    Sys.command (Filename.quote_command exe ~stdout:out ~stderr:out args)
  in
  let contents = In_channel.with_open_text out In_channel.input_all in
  Sys.remove out;
  (status, contents)

let test_unknown_subcommand () =
  let status, out = run_capture [ "definitely-not-a-command" ] in
  Alcotest.(check bool) "non-zero exit" true (status <> 0);
  Alcotest.(check bool) "prints usage" true
    (Test_util.contains (String.lowercase_ascii out) "usage")

let test_unknown_flag () =
  let status, out = run_capture [ "summary"; "--no-such-flag" ] in
  Alcotest.(check bool) "non-zero exit" true (status <> 0);
  Alcotest.(check bool) "names the flag" true (Test_util.contains out "no-such-flag")

let test_help_exits_zero () =
  let status, out = run_capture [ "--help=plain" ] in
  Alcotest.(check int) "exit 0" 0 status;
  Alcotest.(check bool) "lists serve" true (Test_util.contains out "serve");
  Alcotest.(check bool) "lists replay" true (Test_util.contains out "replay")

let test_snapshot_missing_file () =
  let status, _ = run_capture [ "snapshot"; "no-such-checkpoint.json" ] in
  Alcotest.(check bool) "non-zero exit" true (status <> 0)

(* A crash flag that cannot take effect is refused with exit 2 before
   the fabric writes anything. *)
let test_serve_kill_at_past_ticks () =
  let dir = Filename.temp_file "nu_cli_kill" "" in
  Sys.remove dir;
  let journal = Filename.concat dir "wal" in
  let status, out =
    run_capture
      [
        "serve"; "--shards"; "2"; "--ticks"; "20"; "--kill-shard"; "1";
        "--kill-at"; "40"; "--journal"; journal; "--checkpoint";
        Filename.concat dir "cp.json";
      ]
  in
  Alcotest.(check int) "exit 2" 2 status;
  Alcotest.(check bool) "names --kill-at" true (Test_util.contains out "--kill-at");
  Alcotest.(check bool) "served nothing" false (Test_util.contains out "tick(s)");
  Alcotest.(check bool) "wrote nothing" false (Sys.file_exists dir)

(* A negative checkpoint period would save neither periodically nor at
   the end; it is refused with exit 2 before anything is served or
   written. *)
let test_serve_negative_checkpoint_every () =
  let dir = Filename.temp_file "nu_cli_cp" "" in
  Sys.remove dir;
  let status, out =
    run_capture
      [
        "serve"; "--ticks"; "20"; "--checkpoint"; Filename.concat dir "cp.json";
        "--checkpoint-every=-1";
      ]
  in
  Alcotest.(check int) "exit 2" 2 status;
  Alcotest.(check bool) "names --checkpoint-every" true
    (Test_util.contains out "--checkpoint-every");
  Alcotest.(check bool) "served nothing" false (Test_util.contains out "digest:");
  Alcotest.(check bool) "wrote nothing" false (Sys.file_exists dir)

(* A checkpoint period with nowhere to save to would checkpoint
   nothing; it is refused with exit 2 before anything is served. *)
let test_serve_checkpoint_every_without_checkpoint () =
  let status, out =
    run_capture [ "serve"; "--ticks"; "20"; "--checkpoint-every"; "5" ]
  in
  Alcotest.(check int) "exit 2" 2 status;
  Alcotest.(check bool) "names --checkpoint-every" true
    (Test_util.contains out "--checkpoint-every");
  Alcotest.(check bool) "names --checkpoint" true
    (Test_util.contains out "--checkpoint FILE");
  Alcotest.(check bool) "served nothing" false (Test_util.contains out "digest:")

let test_serve_kill_shard_without_kill_at () =
  let status, out = run_capture [ "serve"; "--kill-shard"; "0" ] in
  Alcotest.(check int) "exit 2" 2 status;
  Alcotest.(check bool) "names --kill-at" true (Test_util.contains out "--kill-at");
  Alcotest.(check bool) "served nothing" false (Test_util.contains out "digest:")

(* A stream command whose flow names a host outside the served fabric
   (128 hosts) is refused at load with exit 1, naming the file and
   line, before the valid command ahead of it is served or the WAL is
   opened. *)
let test_serve_stream_bad_host () =
  let dir = Filename.temp_file "nu_cli_stream" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let stream = Filename.concat dir "cmds.jsonl" in
  let command tick id src =
    Printf.sprintf
      {|{"tick": %d, "tenant": "a", "event": {"id": %d, "arrival_s": 0.0, "kind": {"kind": "additions"}, "work": [{"op": "install", "flow": {"id": %d, "src": %d, "dst": 77, "size_mbit": 40.0, "duration_s": 2.0, "arrival_s": 0.0}}]}}|}
      tick id (9000 + id) src
  in
  Out_channel.with_open_text stream (fun oc ->
      output_string oc (command 0 1 3 ^ "\n" ^ command 3 2 9999 ^ "\n"));
  let journal = Filename.concat dir "wal" in
  let status, out =
    run_capture
      [ "serve"; "--stream"; stream; "--ticks"; "10"; "--journal"; journal ]
  in
  Alcotest.(check int) "exit 1" 1 status;
  Alcotest.(check bool) "names file and line" true
    (Test_util.contains out (stream ^ ":2:"));
  Alcotest.(check bool) "names the host" true
    (Test_util.contains out "src host 9999 outside [0, 128)");
  Alcotest.(check bool) "wrote no WAL" false (Sys.file_exists journal);
  Sys.remove stream;
  Sys.rmdir dir

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let fresh_dir name =
  let dir = Filename.temp_file name "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  dir

(* The value after [prefix] on the output line that starts with it. *)
let field out prefix =
  match
    List.find_opt
      (fun l -> String.starts_with ~prefix l)
      (String.split_on_char '\n' out)
  with
  | Some l -> l
  | None -> Alcotest.failf "no %S line in:\n%s" prefix out

(* A killed and recovered run observes every tick once: its watchdog
   prints the uninterrupted run's alert line, digest included. *)
let test_serve_kill_watch_digest () =
  let dir = fresh_dir "nu_cli_watch" in
  let serve name extra =
    let sub = Filename.concat dir name in
    Sys.mkdir sub 0o755;
    let status, out =
      run_capture
        ([
           "serve"; "--ticks"; "60"; "--rate"; "0.5"; "--seed"; "42";
           "--journal"; Filename.concat sub "wal"; "--checkpoint";
           Filename.concat sub "cp.json"; "--metrics-dir";
           Filename.concat sub "metrics"; "--watch";
         ]
        @ extra)
    in
    Alcotest.(check int) (name ^ " exit 0") 0 status;
    out
  in
  let plain = serve "plain" [] in
  let killed = serve "killed" [ "--kill-shard"; "0"; "--kill-at"; "30" ] in
  Alcotest.(check bool) "recovered" true (Test_util.contains killed "serve: recovered");
  Alcotest.(check string) "decision digest" (field plain "digest:")
    (field killed "digest:");
  Alcotest.(check string) "alert line" (field plain "watch:")
    (field killed "watch:");
  rm_rf dir

(* The offline watchdog reads watch.jsonl and nothing else: a metrics
   directory without it exits 2 and names the missing file. *)
let test_watch_without_journal () =
  let dir = fresh_dir "nu_cli_watch" in
  let status, out = run_capture [ "watch"; dir ] in
  Alcotest.(check int) "exit 2" 2 status;
  Alcotest.(check bool) "names the file" true
    (Test_util.contains out (Filename.concat dir "watch.jsonl"));
  rm_rf dir

(* A metrics directory whose parents do not exist yet is created whole,
   not refused with an uncaught Sys_error. *)
let test_serve_nested_metrics_dir () =
  let dir = fresh_dir "nu_cli_nested" in
  let metrics = Filename.concat (Filename.concat dir "a") "b" in
  let status, out =
    run_capture [ "serve"; "--ticks"; "5"; "--metrics-dir"; metrics ]
  in
  Alcotest.(check int) ("exit 0: " ^ out) 0 status;
  Alcotest.(check bool) "lifecycle.jsonl written" true
    (Sys.file_exists (Filename.concat metrics "lifecycle.jsonl"));
  rm_rf dir

(* [telemetry DIR] over a lifecycle log written through Obs.Lifecycle:
   each request is [(id, tenant, last stage)], stamped Arrived, Admitted
   and then its last stage. *)
let telemetry_of requests =
  let dir = fresh_dir "nu_cli_telemetry" in
  let lc =
    Obs.Lifecycle.create ~path:(Filename.concat dir "lifecycle.jsonl") ()
  in
  List.iter
    (fun (id, tenant, last) ->
      let stamp stage = Obs.Lifecycle.stamp lc ~id ~tenant ~tick:0 ~t_s:0.0 stage in
      stamp Obs.Lifecycle.Arrived;
      stamp Obs.Lifecycle.Admitted;
      stamp last)
    requests;
  Obs.Lifecycle.close lc;
  let status, out = run_capture [ "telemetry"; dir ] in
  rm_rf dir;
  Alcotest.(check int) ("exit 0: " ^ out) 0 status;
  out

(* Two tenants with mean ECTs 2 s and 4 s: Jain's index is
   (2 + 4)^2 / (2 * (2^2 + 4^2)) = 0.9. *)
let test_telemetry_summary () =
  let completed ect_s = Obs.Lifecycle.Completed { ect_s } in
  let out =
    telemetry_of
      [ (1, "a", completed 1.0); (2, "a", completed 3.0); (3, "b", completed 4.0) ]
  in
  Alcotest.(check string) "jain line" "jain index: 0.9000 over 2 tenant(s)"
    (field out "jain index:");
  Alcotest.(check string) "overall line"
    "overall ECT: mean 2.667 s, p99 4.000 s, p999 4.000 s (3 completion(s))"
    (field out "overall ECT:")

(* Arrivals that never complete leave no mean to compare: the index is
   reported as absent and no overall-ECT line is printed. *)
let test_telemetry_no_completion () =
  let submitted = Obs.Lifecycle.Submitted { wait_ticks = 0 } in
  let out = telemetry_of [ (1, "a", submitted); (2, "b", submitted) ] in
  Alcotest.(check string) "jain line" "jain index: - (no completions)"
    (field out "jain index:");
  Alcotest.(check bool) "no overall line" false (Test_util.contains out "overall ECT:")

let suite =
  [
    ("unknown subcommand fails", `Quick, test_unknown_subcommand);
    ("unknown flag fails", `Quick, test_unknown_flag);
    ("help exits zero", `Quick, test_help_exits_zero);
    ("snapshot missing file fails", `Quick, test_snapshot_missing_file);
    ( "serve negative --checkpoint-every fails",
      `Quick,
      test_serve_negative_checkpoint_every );
    ( "serve --checkpoint-every without --checkpoint fails",
      `Quick,
      test_serve_checkpoint_every_without_checkpoint );
    ("serve --kill-at past --ticks fails", `Quick, test_serve_kill_at_past_ticks);
    ( "serve --kill-shard without --kill-at fails",
      `Quick,
      test_serve_kill_shard_without_kill_at );
    ("serve --stream with an out-of-range host fails", `Quick, test_serve_stream_bad_host);
    ( "serve --kill-shard --watch = plain alert digest",
      `Quick,
      test_serve_kill_watch_digest );
    ("watch without watch.jsonl fails", `Quick, test_watch_without_journal);
    ("serve creates a nested --metrics-dir", `Quick, test_serve_nested_metrics_dir);
    ("telemetry summary over two tenants", `Quick, test_telemetry_summary);
    ("telemetry without completions", `Quick, test_telemetry_no_completion);
  ]
