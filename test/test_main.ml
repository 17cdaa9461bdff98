(* Entry point aggregating all suites. `dune runtest` runs everything;
   ALCOTEST_QUICK_TESTS=1 skips the statistical `Slow cases. *)

let () =
  Alcotest.run "event-level-network-update"
    [
      ("stats", Test_stats.suite);
      ("graph", Test_graph.suite);
      ("topo", Test_topo.suite);
      ("traffic", Test_traffic.suite);
      ("net", Test_net.suite);
      ("update", Test_update.suite);
      ("fault", Test_fault.suite);
      ("sched", Test_sched.suite);
      ("obs", Test_obs.suite);
      ("serve", Test_serve.suite);
      ("cli", Test_cli.suite);
      ("expt", Test_expt.suite);
      ("scenario", Test_scenario.suite);
      ("shard", Test_shard.suite);
    ]
