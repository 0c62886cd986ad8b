let () =
  Alcotest.run "chls"
    [ Test_bitvec.suite; Test_front.suite; Test_front_edge.suite; Test_interp.suite; Test_interp_edge.suite; Test_ir.suite; Test_ssa.suite;
      Test_backends.suite; Test_sched.suite; Test_flow.suite; Test_rtl.suite;
      Test_workloads.suite; Test_ifconv.suite; Test_c2v.suite; Test_facade.suite;
      Test_passes.suite; Test_random.suite; Test_simcomp.suite; Test_obs.suite;
      Test_conc.suite; Test_registry.suite; Test_driver.suite; Test_cache.suite;
      Test_serve.suite; Test_span.suite; Test_fuzz.suite;
      Test_config.suite; Test_explore.suite; Test_design.suite;
      Test_verdict.suite; Test_statement_machine.suite; Test_datapath.suite;
      Test_config_pins.suite ]
