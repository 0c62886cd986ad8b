(* Backend correctness: every synthesized design must produce the same
   results as the software oracle (the reference interpreter) on every
   workload the backend's dialect accepts — the central refinement
   property of the whole system.  Also sanity-checks each backend's
   timing/area characteristics and the netlist elaboration path. *)

let accepts backend program =
  Dialect.check (Registry.dialect backend) program = []

let check_design backend (w : Workloads.t) design =
  List.iter
    (fun args ->
      let expected = Workloads.reference w args in
      let observed = Design.run_int design args in
      Alcotest.(check (option int))
        (Printf.sprintf "%s/%s(%s)" (Registry.name backend)
           w.Workloads.name
           (String.concat "," (List.map string_of_int args)))
        (Some expected) observed)
    w.Workloads.arg_sets

let check_result backend (w : Workloads.t) = function
  | Ok design -> check_design backend w design
  | Error (Driver.Dialect_reject _) | Error (Driver.No_c_frontend _) -> ()
  | Error e ->
    Alcotest.fail
      (Printf.sprintf "%s/%s: %s" (Registry.name backend) w.Workloads.name
         (Driver.render_error e))

let check_backend_on backend (w : Workloads.t) =
  let session = Driver.create ~entry:w.Workloads.entry w.Workloads.source in
  check_result backend w (Driver.compile session backend)

let sequential_backends =
  [ (Registry.get "transmogrifier"); (Registry.get "bachc"); (Registry.get "cyber");
    (Registry.get "handelc"); (Registry.get "cash"); (Registry.get "systemc");
    (Registry.get "c2verilog"); (Registry.get "specc"); (Registry.get "hardwarec") ]

let test_sequential_equivalence () =
  (* one driver session per workload: the frontend runs once and every
     backend compiles from the same checked program *)
  List.iter
    (fun (w : Workloads.t) ->
      let session = Driver.create ~entry:w.Workloads.entry w.Workloads.source in
      List.iter
        (fun (backend, result) -> check_result backend w result)
        (Driver.compile_all ~backends:sequential_backends session))
    Workloads.sequential

let test_cones_equivalence () =
  List.iter (check_backend_on (Registry.get "cones")) Workloads.combinational

let test_concurrent_equivalence () =
  List.iter (check_backend_on (Registry.get "handelc")) Workloads.concurrent;
  List.iter (check_backend_on (Registry.get "bachc")) Workloads.concurrent

let test_thorny_equivalence () =
  List.iter (check_backend_on (Registry.get "c2verilog")) Workloads.thorny

let test_dialect_rejections () =
  (* the pointer workload must be rejected by the pointer-free dialects *)
  let ptr = Workloads.parse Workloads.pointer_sum in
  List.iter
    (fun backend ->
      Alcotest.(check bool)
        (Registry.name backend ^ " rejects pointers")
        false (accepts backend ptr))
    [ (Registry.get "cones"); (Registry.get "handelc"); (Registry.get "bachc");
      (Registry.get "cash") ];
  Alcotest.(check bool) "c2verilog accepts pointers" true
    (accepts (Registry.get "c2verilog") ptr);
  let conc = Workloads.parse Workloads.producer_consumer in
  Alcotest.(check bool) "cash rejects channels" false
    (accepts (Registry.get "cash") conc);
  Alcotest.(check bool) "handelc accepts channels" true
    (accepts (Registry.get "handelc") conc)

(* --- timing semantics of the clock-insertion rules --- *)

let cycles_of backend w args =
  let program = Workloads.parse w in
  let design = Registry.compile backend program ~entry:w.Workloads.entry in
  let r = design.Design.run (Design.int_args args) in
  Option.get r.Design.cycles

let test_transmogrifier_cycle_rule () =
  (* fib(n): after CFG simplification an iteration is the header state plus
     one merged body state — cycles grow at exactly 2 per iteration, the
     "only loop iterations take a cycle" rule (plus the exit test). *)
  let c10 = cycles_of (Registry.get "transmogrifier") Workloads.fib [ 10 ] in
  let c20 = cycles_of (Registry.get "transmogrifier") Workloads.fib [ 20 ] in
  Alcotest.(check int) "two states per extra iteration" 20 (c20 - c10)

let test_handelc_cycle_rule () =
  (* Handel-C: one cycle per assignment.  fib's loop body has 3 assignments
     plus the for-step, so cycles scale at ~4/iteration. *)
  let c10 = cycles_of (Registry.get "handelc") Workloads.fib [ 10 ] in
  let c20 = cycles_of (Registry.get "handelc") Workloads.fib [ 20 ] in
  let per_iter = (c20 - c10) / 10 in
  Alcotest.(check int) "four assignment-cycles per fib iteration" 4 per_iter

let test_timing_scheme_tradeoffs () =
  (* The paper's timing-control spectrum, as orderings that must hold:
     Transmogrifier chains whole blocks, so it has the fewest cycles but
     the longest clock period; Bach C's scheduler splits work across
     states under a chain budget, so it takes more cycles at a shorter
     period; Handel-C's one-assignment-per-cycle rule charges a cycle per
     assignment but its period is set by its deepest expression. *)
  List.iter
    (fun (w : Workloads.t) ->
      let args = List.hd w.Workloads.arg_sets in
      let program = Workloads.parse w in
      let design b = Registry.compile b program ~entry:w.Workloads.entry in
      let tm = design (Registry.get "transmogrifier") in
      let bach = design (Registry.get "bachc") in
      let tm_cycles = cycles_of (Registry.get "transmogrifier") w args in
      let bach_cycles = cycles_of (Registry.get "bachc") w args in
      Alcotest.(check bool)
        (Printf.sprintf "transmogrifier <= bachc cycles on %s (%d vs %d)"
           w.Workloads.name tm_cycles bach_cycles)
        true (tm_cycles <= bach_cycles);
      let period d = Option.get d.Design.clock_period in
      Alcotest.(check bool)
        (Printf.sprintf "bachc period <= transmogrifier period on %s (%.1f vs %.1f)"
           w.Workloads.name (period bach) (period tm))
        true (period bach <= period tm))
    [ Workloads.fir; Workloads.checksum; Workloads.matmul ]

let test_cones_is_combinational () =
  let program = Workloads.parse Workloads.fir in
  let design = Registry.compile (Registry.get "cones") program ~entry:"fir" in
  let r = design.Design.run (Design.int_args [ 1; 2 ]) in
  Alcotest.(check bool) "no cycles" true (r.Design.cycles = None);
  Alcotest.(check bool) "has settle time" true (r.Design.time_units <> None);
  match design.Design.area () with
  | Some report ->
    Alcotest.(check bool) "no registers in a combinational design" true
      (report.Area.num_registers = 0)
  | None -> Alcotest.fail "cones must report area"

let test_cash_is_asynchronous () =
  let program = Workloads.parse Workloads.fir in
  let design = Registry.compile (Registry.get "cash") program ~entry:"fir" in
  let r = design.Design.run (Design.int_args [ 1; 2 ]) in
  Alcotest.(check bool) "no clock" true (r.Design.cycles = None);
  Alcotest.(check bool) "completion time positive" true
    (match r.Design.time_units with Some t -> t > 0. | None -> false)

(* --- netlist elaboration: the third oracle layer --- *)

let test_elaboration_equivalence () =
  List.iter
    (fun (w : Workloads.t) ->
      let program = Workloads.parse w in
      let lowered = Lower.lower_program program ~entry:w.Workloads.entry in
      let func = lowered.Lower.func in
      let fsmd =
        Fsmd.of_func func ~schedule_block:(fun blk ->
            Schedule.list_schedule func Schedule.default_allocation
              blk.Cir.instrs)
      in
      let elaborated = Rtlgen.elaborate fsmd in
      List.iter
        (fun args ->
          let expected = Workloads.reference w args in
          match
            Rtlgen.simulate elaborated ~args:(Design.int_args args) ~func
          with
          | Ok (outputs, _cycles, _) ->
            Alcotest.(check int)
              (Printf.sprintf "netlist %s(%s)" w.Workloads.name
                 (String.concat "," (List.map string_of_int args)))
              expected
              (Bitvec.to_int (List.assoc "result" outputs))
          | Error `Timeout -> Alcotest.fail "netlist simulation timeout")
        w.Workloads.arg_sets)
    Workloads.sequential

let test_elaborated_verilog_emits () =
  let program = Workloads.parse Workloads.gcd in
  let design = Registry.compile (Registry.get "bachc") program ~entry:"gcd" in
  match design.Design.verilog () with
  | Some src ->
    Alcotest.(check bool) "has module header" true
      (String.length src > 0
      && String.sub src 0 7 = "module ");
    let contains needle =
      let rec go i =
        i + String.length needle <= String.length src
        && (String.sub src i (String.length needle) = needle || go (i + 1))
      in
      go 0
    in
    Alcotest.(check bool) "has clocked block" true
      (contains "always @(posedge clk)");
    Alcotest.(check bool) "has endmodule" true (contains "endmodule")
  | None -> Alcotest.fail "bachc should emit Verilog"

(* --- the refinement and EDSL backends --- *)

let test_specc_refinement () =
  let w = Workloads.gcd in
  let program = Workloads.parse w in
  let _, report =
    Specc.refine program ~entry:w.Workloads.entry
      ~test_vectors:w.Workloads.arg_sets
  in
  Alcotest.(check bool) "all levels equivalent" true
    report.Specc.all_equivalent;
  Alcotest.(check int) "4 levels x vectors checks"
    (4 * List.length w.Workloads.arg_sets)
    (List.length report.Specc.checks)

let test_ocapi_edsl () =
  (* build a GCD FSM structurally, the Ocapi way *)
  let b = Ocapi.create ~name:"gcd_edsl" in
  let a = Ocapi.input b ~name:"a" ~width:32 in
  let bb = Ocapi.input b ~name:"b" ~width:32 in
  Ocapi.set_result_width b 32;
  let open Ocapi in
  (* state 0: test b != 0; state 1: (a, b) <- (b, a mod b) *)
  let s0 = add_state b [] (Branch (reg bb ==: const ~width:32 0, 2, 1)) in
  let s1 =
    add_state b
      [ Set (a, reg bb); Set (bb, Bin (Netlist.B_srem, reg a, reg bb)) ]
      (Goto 0)
  in
  let s2 = add_state b [] (Done (Some (reg a))) in
  Alcotest.(check (list int)) "state ids" [ 0; 1; 2 ] [ s0; s1; s2 ];
  let design = Ocapi.to_design b in
  List.iter
    (fun (x, y) ->
      let rec ocaml_gcd a b = if b = 0 then a else ocaml_gcd b (a mod b) in
      Alcotest.(check (option int))
        (Printf.sprintf "gcd_edsl(%d,%d)" x y)
        (Some (ocaml_gcd x y))
        (Design.run_int design [ x; y ]))
    [ (54, 24); (1071, 462); (13, 5) ]

let test_systemc_kernel () =
  (* a two-process network: a counter and a comparator *)
  let k = Sc_kernel.create () in
  let count = Sc_kernel.signal k ~name:"count" ~width:8 () in
  let done_sig = Sc_kernel.signal k ~name:"done" ~width:1 () in
  Sc_kernel.sc_clocked k ~name:"counter" (fun () ->
      Sc_kernel.write_int count (Sc_kernel.read_int count + 1));
  Sc_kernel.sc_method k ~name:"compare" (fun () ->
      Sc_kernel.write_int done_sig
        (if Sc_kernel.read_int count >= 10 then 1 else 0));
  (match Sc_kernel.run_until k ~stop:done_sig ~max_cycles:100 with
  | Ok cycles -> Alcotest.(check int) "10 cycles to reach 10" 10 cycles
  | Error `Timeout -> Alcotest.fail "counter never finished");
  Alcotest.(check int) "count is 10" 10 (Sc_kernel.read_int count)

let test_systemc_delta_convergence () =
  (* a chain of combinational processes must settle via delta cycles *)
  let k = Sc_kernel.create () in
  let a = Sc_kernel.signal k ~name:"a" ~width:8 () in
  let b = Sc_kernel.signal k ~name:"b" ~width:8 () in
  let c = Sc_kernel.signal k ~name:"c" ~width:8 () in
  let stop = Sc_kernel.signal k ~name:"stop" ~width:1 ~init:1 () in
  Sc_kernel.sc_method k ~name:"b=a+1" (fun () ->
      Sc_kernel.write_int b (Sc_kernel.read_int a + 1));
  Sc_kernel.sc_method k ~name:"c=b*2" (fun () ->
      Sc_kernel.write_int c (Sc_kernel.read_int b * 2));
  Sc_kernel.sc_clocked k ~name:"drive" (fun () -> Sc_kernel.write_int a 5);
  (match Sc_kernel.run_until k ~stop ~max_cycles:4 with
  | Ok _ -> ()
  | Error `Timeout -> Alcotest.fail "no convergence");
  Alcotest.(check int) "c settled to (0+1)*2 before any clock" 2
    (Sc_kernel.read_int c)

let test_c2verilog_machine_details () =
  let program = Workloads.parse Workloads.recursion in
  let design =
    Registry.compile (Registry.get "c2verilog") program ~entry:"run"
  in
  (* recursion depth costs cycles: deeper recursion, more cycles *)
  let cycles n =
    Option.get
      ((design.Design.run (Design.int_args [ n ])).Design.cycles)
  in
  Alcotest.(check bool) "recursion costs cycles" true (cycles 10 > cycles 6);
  Alcotest.(check bool) "stats mention code words" true
    (List.mem_assoc "code words" design.Design.stats)

let test_handelc_channel_cycle_semantics () =
  (* a rendezvous costs a cycle and blocks until both sides arrive *)
  let src =
    {|
    chan int c;
    int run(int n) {
      int got = 0;
      par {
        { delay; delay; delay; send(c, n * 2); }
        { got = recv(c); }
      }
      return got;
    }
    |}
  in
  let design =
    Registry.compile (Registry.get "handelc") (Typecheck.parse_and_check src)
      ~entry:"run"
  in
  let r = design.Design.run (Design.int_args [ 21 ]) in
  Alcotest.(check (option int)) "value transferred" (Some 42)
    (Option.map Bitvec.to_int r.Design.result);
  (* 3 delay cycles + send/recv transfer + join bookkeeping: 4..7 cycles *)
  let cycles = Option.get r.Design.cycles in
  Alcotest.(check bool)
    (Printf.sprintf "receiver waited (%d cycles)" cycles)
    true
    (cycles >= 4 && cycles <= 8)

let test_handelc_structural_views () =
  (* sequential Handel-C programs get a netlist view cut at assignment
     boundaries; concurrent ones do not (the statement machine is the
     only executable model for par/channels) *)
  let seq =
    Registry.compile (Registry.get "handelc") (Workloads.parse Workloads.gcd)
      ~entry:"gcd"
  in
  (match seq.Design.verilog () with
  | Some v -> Alcotest.(check bool) "module emitted" true (String.length v > 0)
  | None -> Alcotest.fail "sequential handelc should emit Verilog");
  (match seq.Design.area () with
  | Some a ->
    Alcotest.(check bool) "has registers" true (a.Area.num_registers > 0)
  | None -> Alcotest.fail "sequential handelc should report area");
  let conc =
    Registry.compile (Registry.get "handelc")
      (Workloads.parse Workloads.producer_consumer)
      ~entry:"run"
  in
  Alcotest.(check bool) "concurrent: no netlist view" true
    (conc.Design.verilog () = None)

let test_global_state_observable () =
  (* globals written by the design are observable after the run *)
  let src =
    {|
    int last = 0;
    int run(int n) {
      last = n * 3;
      return n;
    }
    |}
  in
  let program = Typecheck.parse_and_check src in
  List.iter
    (fun backend ->
      let design = Registry.compile backend program ~entry:"run" in
      let r = design.Design.run (Design.int_args [ 7 ]) in
      match List.assoc_opt "last" r.Design.globals with
      | Some v ->
        Alcotest.(check int)
          (Registry.name backend ^ " global readback")
          21 (Bitvec.to_int v)
      | None ->
        Alcotest.fail (Registry.name backend ^ " lost global 'last'"))
    [ (Registry.get "transmogrifier"); (Registry.get "bachc"); (Registry.get "handelc");
      (Registry.get "c2verilog") ]

let suite =
  ( "backends",
    [ Alcotest.test_case "sequential equivalence (9 backends x 9 kernels)"
        `Quick test_sequential_equivalence;
      Alcotest.test_case "cones equivalence" `Quick test_cones_equivalence;
      Alcotest.test_case "concurrent equivalence" `Quick
        test_concurrent_equivalence;
      Alcotest.test_case "thorny-C equivalence (c2verilog)" `Quick
        test_thorny_equivalence;
      Alcotest.test_case "dialect rejections" `Quick test_dialect_rejections;
      Alcotest.test_case "transmogrifier cycle rule" `Quick
        test_transmogrifier_cycle_rule;
      Alcotest.test_case "handelc cycle rule" `Quick test_handelc_cycle_rule;
      Alcotest.test_case "timing scheme tradeoffs" `Quick
        test_timing_scheme_tradeoffs;
      Alcotest.test_case "cones is combinational" `Quick
        test_cones_is_combinational;
      Alcotest.test_case "cash is asynchronous" `Quick
        test_cash_is_asynchronous;
      Alcotest.test_case "netlist elaboration equivalence" `Quick
        test_elaboration_equivalence;
      Alcotest.test_case "verilog emission" `Quick
        test_elaborated_verilog_emits;
      Alcotest.test_case "specc refinement report" `Quick
        test_specc_refinement;
      Alcotest.test_case "ocapi EDSL gcd" `Quick test_ocapi_edsl;
      Alcotest.test_case "systemc kernel" `Quick test_systemc_kernel;
      Alcotest.test_case "systemc delta convergence" `Quick
        test_systemc_delta_convergence;
      Alcotest.test_case "c2verilog machine details" `Quick
        test_c2verilog_machine_details;
      Alcotest.test_case "handelc channel cycles" `Quick
        test_handelc_channel_cycle_semantics;
      Alcotest.test_case "handelc structural views" `Quick
        test_handelc_structural_views;
      Alcotest.test_case "globals observable" `Quick
        test_global_state_observable ] )
