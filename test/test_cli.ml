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

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_unknown_subcommand () =
  let status, out = run_capture [ "definitely-not-a-command" ] in
  Alcotest.(check bool) "non-zero exit" true (status <> 0);
  Alcotest.(check bool) "prints usage" true
    (contains (String.lowercase_ascii out) "usage")

let test_unknown_flag () =
  let status, out = run_capture [ "summary"; "--no-such-flag" ] in
  Alcotest.(check bool) "non-zero exit" true (status <> 0);
  Alcotest.(check bool) "names the flag" true (contains out "no-such-flag")

let test_help_exits_zero () =
  let status, out = run_capture [ "--help=plain" ] in
  Alcotest.(check int) "exit 0" 0 status;
  Alcotest.(check bool) "lists serve" true (contains out "serve");
  Alcotest.(check bool) "lists replay" true (contains out "replay")

let test_snapshot_missing_file () =
  let status, _ = run_capture [ "snapshot"; "no-such-checkpoint.json" ] in
  Alcotest.(check bool) "non-zero exit" true (status <> 0)

let test_serve_bad_admission () =
  let status, out = run_capture [ "serve"; "--admission"; "gibberish" ] in
  Alcotest.(check bool) "non-zero exit" true (status <> 0);
  Alcotest.(check bool) "mentions the option" true (contains out "admission")

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
  Alcotest.(check bool) "names --kill-at" true (contains out "--kill-at");
  Alcotest.(check bool) "served nothing" false (contains out "tick(s)");
  Alcotest.(check bool) "wrote nothing" false (Sys.file_exists dir)

let test_serve_kill_shard_without_kill_at () =
  let status, out = run_capture [ "serve"; "--kill-shard"; "0" ] in
  Alcotest.(check int) "exit 2" 2 status;
  Alcotest.(check bool) "names --kill-at" true (contains out "--kill-at");
  Alcotest.(check bool) "served nothing" false (contains out "digest:")

let suite =
  [
    ("unknown subcommand fails", `Quick, test_unknown_subcommand);
    ("unknown flag fails", `Quick, test_unknown_flag);
    ("help exits zero", `Quick, test_help_exits_zero);
    ("snapshot missing file fails", `Quick, test_snapshot_missing_file);
    ("serve bad admission policy fails", `Quick, test_serve_bad_admission);
    ("serve --kill-at past --ticks fails", `Quick, test_serve_kill_at_past_ticks);
    ( "serve --kill-shard without --kill-at fails",
      `Quick,
      test_serve_kill_shard_without_kill_at );
  ]
