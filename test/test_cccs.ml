let () =
  Alcotest.run "cccs"
    [
      ("bits", Test_bits.suite);
      ("huffman", Test_huffman.suite);
      ("tepic", Test_tepic.suite);
      ("asm", Test_asm.suite);
      ("compiler", Test_compiler.suite);
      ("emulator", Test_emulator.suite);
      ("workloads", Test_workloads.suite);
      ("encoding", Test_encoding.suite);
      ("fetch", Test_fetch.suite);
      ("integration", Test_integration.suite);
      ("extensions", Test_extensions.suite);
      ("robustness", Test_robustness.suite);
      ("analysis", Test_analysis.suite);
      ("validate", Test_validate.suite);
      ("certify", Test_certify.suite);
      ("faults", Test_faults.suite);
      ("parallel", Test_parallel.suite);
      ("decode", Test_decode.suite);
      ("transcode", Test_transcode.suite);
      ("obs", Test_obs.suite);
      ("obs_ledger", Test_obs_ledger.suite);
      ("trace_stream", Test_trace_stream.suite);
      ("fuzz", Test_fuzz.suite);
      ("wcet", Test_wcet.suite);
    ]
