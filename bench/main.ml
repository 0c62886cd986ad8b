(* CHLS benchmark harness.

   `dune exec bench/main.exe` regenerates every experiment table
   (T1, E1..E9 in experiments.ml) and then runs the bechamel compiler-
   throughput microbenchmarks (E10).  Pass --skip-perf to stop after the
   experiment tables (used by CI-style runs where wall-clock timings are
   noise). *)

let compile_pipeline_benchmarks () =
  let open Bechamel in
  let src = (Workloads.matmul).Workloads.source in
  let program = Typecheck.parse_and_check src in
  let lower_only = Passes.pipeline "bench-lower" in
  let lowered, _ = Passes.lower_simplify program ~entry:"matmul" in
  let simplified = lowered.Lower.func in
  let tests =
    [ Test.make ~name:"parse+typecheck" (Staged.stage (fun () ->
          ignore (Typecheck.parse_and_check src)));
      Test.make ~name:"lower-to-cir" (Staged.stage (fun () ->
          ignore (Passes.run lower_only program ~entry:"matmul")));
      Test.make ~name:"ssa-construction" (Staged.stage (fun () ->
          ignore (Ssa.of_func simplified)));
      Test.make ~name:"list-schedule" (Staged.stage (fun () ->
          Array.iter
            (fun blk ->
              ignore
                (Schedule.list_schedule simplified
                   Schedule.default_allocation blk.Cir.instrs))
            simplified.Cir.fn_blocks));
      Test.make ~name:"fsmd-elaborate-netlist" (Staged.stage (fun () ->
          let fsmd =
            Fsmd.of_func simplified ~schedule_block:(fun blk ->
                Schedule.list_schedule simplified
                  Schedule.default_allocation blk.Cir.instrs)
          in
          ignore (Rtlgen.elaborate fsmd)));
      Test.make ~name:"interp-reference-run" (Staged.stage (fun () ->
          ignore
            (Interp.run program ~entry:"matmul"
               ~args:[ Bitvec.of_int ~width:64 3 ])));
      Test.make ~name:"cash-async-sim" (Staged.stage (fun () ->
          let ssa = Ssa.of_func simplified in
          ignore (Asim.run ssa ~args:[ Bitvec.of_int ~width:64 3 ]))) ]
  in
  Tables.section "E10" "Compiler throughput (bechamel)"
    "not a paper table: microbenchmarks of the synthesis pipeline stages on \
     the matmul kernel";
  let clock = Toolkit.Instance.monotonic_clock in
  let label = Measure.label clock in
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let result =
            Benchmark.run
              (Benchmark.cfg ~quota:(Time.second 0.2) ~kde:None ())
              [ clock ] elt
          in
          let samples = result.Benchmark.lr in
          let runs = Array.length samples in
          if runs > 0 then begin
            let per_run =
              Array.map
                (fun m ->
                  Measurement_raw.get ~label m
                  /. Float.max 1. (Measurement_raw.run m))
                samples
            in
            Array.sort compare per_run;
            Printf.printf "  %-28s %12.1f ns/run  (%d samples)\n"
              (Test.Elt.name elt)
              per_run.(runs / 2)
              runs
          end)
        (Test.elements test))
    tests

let () =
  let skip_perf = Array.exists (fun a -> a = "--skip-perf") Sys.argv in
  (* CI entries: one bench alone, so its JSON artifact regenerates
     quickly on every push.  simcomp: the compiled-simulation bench on
     one kernel, with its built-in equivalence check.  serve: two-process
     store persistence + Domain-pool throughput, every response
     oracle-checked.  fuzz: dialect-matrix fuzz throughput + the workload
     oracle-agreement matrix, failing hard on any divergence.  explore:
     per-kernel design-space sweeps, every point oracle-verified, warm
     re-sweeps all cache hits. *)
  let smokes =
    [ ("--simcomp-smoke", Simcomp_bench.run_smoke);
      ("--serve-smoke", Serve_bench.run_smoke);
      ("--fuzz-smoke", Fuzz_bench.run_smoke);
      ("--explore-smoke", Explore_bench.run_smoke) ]
  in
  List.iter
    (fun (flag, run) ->
      if Array.mem flag Sys.argv then begin
        run ();
        exit 0
      end)
    smokes;
  print_endline
    "CHLS experiment harness — reproducing Edwards, \"The Challenges of \
     Hardware\nSynthesis from C-like Languages\" (DATE 2005).";
  Experiments.run_all ();
  Ablations.run_all ();
  (* the settle-strategy comparison always runs: its node-eval counters are
     deterministic (only the wall-time column is machine-dependent) and it
     doubles as a differential check of the event-driven evaluator *)
  Neteval_bench.run_all ();
  (* the driver sweep's cache counters are likewise deterministic *)
  Driver_bench.run_all ();
  (* fuzz corpus + oracle-agreement matrix: deterministic generation, so
     the agreement counts are stable (only wall time varies) *)
  Fuzz_bench.run_all ();
  (* the serve bench's cache-provenance counts and oracle checks are
     deterministic too; it must precede anything that might spawn a
     domain, because its persistence phase forks *)
  Serve_bench.run_all ();
  (* design-space sweeps: deterministic points and fronts; the warm
     re-sweep doubles as the config-keyed cache regression check.  Its
     worker domains are why it runs after the serve bench's fork *)
  Explore_bench.run_all ();
  if not skip_perf then begin
    (* compiled vs interpreting engines: wall-clock cycles/sec, so it sits
       with the perf benchmarks (the equivalence check inside always runs
       under dune runtest via test_simcomp) *)
    Simcomp_bench.run_all ();
    compile_pipeline_benchmarks ()
  end
  else print_endline "\n(E10 and simcomp skipped: --skip-perf)"
