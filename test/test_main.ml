(* The test runner: every suite in one Alcotest binary (dune runtest). *)

let () =
  Alcotest.run "sintra"
    [
      ("bignum", Test_bignum.suite);
      ("hashes", Test_hashes.suite);
      ("wire", Test_wire.suite);
      ("crypto", Test_crypto.suite);
      ("sim", Test_sim.suite);
      ("swlink", Test_swlink.suite);
      ("broadcast", Test_broadcast.suite);
      ("agreement", Test_agreement.suite);
      ("channels", Test_channels.suite);
      ("batching", Test_batching.suite);
      ("pipeline", Test_pipeline.suite);
      ("load", Test_load.suite);
      ("optimistic", Test_optimistic.suite);
      ("system", Test_system.suite);
      ("properties", Test_properties.suite);
      ("robustness", Test_robustness.suite);
      ("service", Test_service.suite);
      ("regression", Test_regression.suite);
      ("faults", Test_faults.suite);
      ("trace", Test_trace.suite);
      ("causal", Test_causal.suite);
      ("lint", Test_lint.suite);
      ("vopr", Test_vopr.suite);
      ("store", Test_store.suite);
      ("amortized", Test_amortized.suite);
      ("artifact", Test_artifact.suite);
    ]
