(* Asynchronous dataflow (CASH substrate) tests: circuit construction,
   timed token simulation, and the async-vs-sync timing relationships
   experiment E6 relies on. *)

let ssa_of src ~entry =
  let program = Typecheck.parse_and_check src in
  let lowered = Lower.lower_program program ~entry in
  Ssa.of_func lowered.Lower.func

let test_dfg_structure () =
  let ssa =
    ssa_of
      "int f(int n) { int s = 0; for (int i = 0; i < n; i = i + 1) { s = s + i; } return s; }"
      ~entry:"f"
  in
  let circuit = Dfg.of_ssa ssa in
  let stats = Dfg.stats circuit in
  Alcotest.(check bool) "has operators" true (stats.Dfg.operators > 0);
  (* the loop introduces merge (mu) nodes for s and i at the header *)
  Alcotest.(check bool) "has merges for the loop" true (stats.Dfg.merges >= 2);
  Alcotest.(check bool) "has a steer for the exit test" true
    (stats.Dfg.steers >= 1);
  Alcotest.(check bool) "area positive" true (Dfg.area circuit > 0.)

let test_asim_equivalence () =
  List.iter
    (fun (w : Workloads.t) ->
      let ssa = ssa_of w.Workloads.source ~entry:w.Workloads.entry in
      List.iter
        (fun args ->
          let expected = Workloads.reference w args in
          let outcome = Asim.run ssa ~args:(Design.int_args args) in
          Alcotest.(check (option int))
            (Printf.sprintf "asim %s" w.Workloads.name)
            (Some expected)
            (Option.map Bitvec.to_int outcome.Asim.return_value))
        w.Workloads.arg_sets)
    Workloads.sequential

let test_asim_parallelism () =
  (* two independent chains complete in ~max time, not the sum: the
     dataflow machine runs them concurrently *)
  let serial =
    ssa_of
      "int f(int a) { int x = a; x = x * x; x = x * x; x = x * x; x = x * x; return x; }"
      ~entry:"f"
  in
  let parallel =
    ssa_of
      {|
      int f(int a) {
        int x = a * a;
        int y = (a + 1) * (a + 1);
        int z = (a + 2) * (a + 2);
        int w = (a + 3) * (a + 3);
        return x + y + z + w;
      }
      |}
      ~entry:"f"
  in
  let time ssa =
    (Asim.run ssa ~args:[ Bitvec.of_int ~width:64 3 ]).Asim.completion_time
  in
  (* serial: 4 dependent multiplies; parallel: 4 independent multiplies,
     then an add tree — must be clearly faster despite more operations *)
  Alcotest.(check bool)
    (Printf.sprintf "parallel (%.1f) < serial (%.1f)" (time parallel)
       (time serial))
    true
    (time parallel < time serial)

let test_asim_memory_serialization () =
  (* stores to the same region serialize via memory tokens *)
  let ssa =
    ssa_of
      {|
      int buf[4];
      int f(int a) {
        buf[0] = a;
        buf[1] = a + 1;
        buf[2] = a + 2;
        int x = buf[0] + buf[1] + buf[2];
        return x;
      }
      |}
      ~entry:"f"
  in
  let outcome = Asim.run ssa ~args:[ Bitvec.of_int ~width:64 10 ] in
  Alcotest.(check (option int)) "memory tokens preserve order" (Some 33)
    (Option.map Bitvec.to_int outcome.Asim.return_value);
  (* 3 serialized stores bound completion from below: latency(store) = 3,
     handshake = 2 -> at least 15 units *)
  Alcotest.(check bool) "stores serialized in time" true
    (outcome.Asim.completion_time >= 15.)

let test_async_beats_worstcase_clock () =
  (* E6's core claim: a synchronous design pays the worst-case state delay
     every cycle, the asynchronous one pays actual operator latencies.
     Verify time(async) < cycles(sync) x period(sync) on gcd, whose cycle
     mixes cheap moves with an expensive remainder. *)
  let w = Workloads.gcd in
  let program = Workloads.parse w in
  let async = Registry.compile (Registry.get "cash") program ~entry:"gcd" in
  let sync =
    Registry.compile (Registry.get "transmogrifier") program ~entry:"gcd"
  in
  List.iter
    (fun args ->
      let ra = async.Design.run (Design.int_args args) in
      let rs = sync.Design.run (Design.int_args args) in
      let async_time = Option.get ra.Design.time_units in
      let sync_time =
        float_of_int (Option.get rs.Design.cycles)
        *. Option.get sync.Design.clock_period
      in
      Alcotest.(check bool)
        (Printf.sprintf "async %.0f < sync %.0f on gcd%s" async_time sync_time
           (String.concat "," (List.map string_of_int args)))
        true
        (async_time < sync_time))
    w.Workloads.arg_sets

let test_tokens_counted () =
  let ssa = ssa_of (Workloads.fib).Workloads.source ~entry:"fib" in
  let o5 = Asim.run ssa ~args:[ Bitvec.of_int ~width:64 5 ] in
  let o20 = Asim.run ssa ~args:[ Bitvec.of_int ~width:64 20 ] in
  Alcotest.(check bool) "more iterations fire more tokens" true
    (o20.Asim.tokens_fired > o5.Asim.tokens_fired)

let suite =
  ( "flow",
    [ Alcotest.test_case "dfg structure" `Quick test_dfg_structure;
      Alcotest.test_case "asim equivalence" `Quick test_asim_equivalence;
      Alcotest.test_case "asim parallelism" `Quick test_asim_parallelism;
      Alcotest.test_case "asim memory serialization" `Quick
        test_asim_memory_serialization;
      Alcotest.test_case "async beats worst-case clock" `Quick
        test_async_beats_worstcase_clock;
      Alcotest.test_case "tokens counted" `Quick test_tokens_counted ] )
