(* Test runner: aggregates per-module suites. Each test_<module>.ml exposes
   [tests : unit Alcotest.test_case list]. *)

let () =
  (* Every controller operation in the suite re-verifies the s-rule ledger
     (Controller.Invariant_violation on divergence). *)
  Unix.putenv "ELMO_DEBUG_INVARIANTS" "1";
  Alcotest.run "elmo"
    [
      ("rng", Test_rng.tests);
      ("stats", Test_stats.tests);
      ("obs", Test_obs.tests);
      ("bitmap", Test_bitmap.tests);
      ("bitio", Test_bitio.tests);
      ("topology", Test_topology.tests);
      ("tree", Test_tree.tests);
      ("placement", Test_placement.tests);
      ("clustering", Test_clustering.tests);
      ("encoding", Test_encoding.tests);
      ("codec", Test_codec.tests);
      ("traffic-fabric", Test_traffic_fabric.tests);
      ("controller", Test_controller.tests);
      ("install", Test_install.tests);
      ("incremental", Test_incremental.tests);
      ("zero-alloc", Test_zero_alloc.tests);
      ("baselines", Test_baselines.tests);
      ("apps", Test_apps.tests);
      ("churn", Test_churn.tests);
      ("experiments", Test_experiments.tests);
      ("fault", Test_fault.tests);
      ("wire", Test_wire.tests);
      ("telemetry", Test_telemetry.tests);
      ("extensions", Test_extensions.tests);
      ("nonclos", Test_nonclos.tests);
      ("reliable", Test_reliable.tests);
      ("verify", Test_verify.tests);
      ("p4gen", Test_p4gen.tests);
      ("vxlan", Test_vxlan.tests);
      ("tenant-api", Test_tenant_api.tests);
      ("igmp", Test_igmp.tests);
      ("lint", Test_lint.tests);
      ("misc", Test_misc.tests);
    ]
