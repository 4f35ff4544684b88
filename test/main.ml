(* Aggregate test runner for the Barracuda reproduction. *)

let () =
  Alcotest.run "barracuda"
    [
      ("util", Test_util.suite);
      ("obs", Test_obs.suite);
      ("tensor", Test_tensor.suite);
      ("octopi", Test_octopi.suite);
      ("tcr", Test_tcr.suite);
      ("codegen", Test_codegen.suite);
      ("gpusim", Test_gpusim.suite);
      ("cpusim", Test_cpusim.suite);
      ("surf", Test_surf.suite);
      ("autotune", Test_autotune.suite);
      ("benchsuite", Test_benchsuite.suite);
      ("extensions", Test_extensions.suite);
      ("facade", Test_facade.suite);
      ("properties", Test_properties.suite);
      ("orio", Test_orio.suite);
      ("cache", Test_cache.suite);
      ("ttgt", Test_ttgt.suite);
      ("frontends", Test_frontends.suite);
      ("misc", Test_misc.suite);
      ("depgraph", Test_depgraph.suite);
      ("more-properties", Test_more_properties.suite);
      ("edges", Test_edges.suite);
      ("service", Test_service.suite);
      ("perfobs", Test_perfobs.suite);
      ("journal", Test_journal.suite);
      ("check", Test_check.suite);
      ("semantic", Test_semantic.suite);
      ("netopt", Test_netopt.suite);
      ("telemetry", Test_telemetry.suite);
      ("drift", Test_drift.suite);
      ("ledger", Test_ledger.suite);
    ]
