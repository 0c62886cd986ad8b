(* Timing closure under the different timing-control models — the paper's
   "Time" section as a walkthrough:

     1. implicit rules force source recoding (Transmogrifier unrolling,
        Handel-C fusion);
     2. HardwareC's declarative constraints move the burden to the
        compiler, which explores allocations instead.

   Run with:  dune exec examples/timing_closure.exe *)

let () =
  print_endline "Part 1: meeting timing by *recoding* (implicit rules)\n";
  let w = Workloads.checksum in
  let program = Workloads.parse w in
  let args = [ 3 ] in
  let measure name backend p =
    let design = Registry.compile backend p ~entry:w.Workloads.entry in
    let r = design.Design.run (Design.int_args args) in
    Printf.printf "  %-34s %5d cycles @ period %.1f  => wall %.0f\n" name
      (Option.get r.Design.cycles)
      (Option.get design.Design.clock_period)
      (Option.get (Design.latency_estimate design r))
  in
  print_endline "Transmogrifier C (cycle per loop iteration):";
  measure "as written" (Registry.get "transmogrifier") program;
  measure "after full loop unrolling" (Registry.get "transmogrifier")
    (Loopopt.unroll_all_program program);
  print_endline "Handel-C (cycle per assignment):";
  measure "as written" (Registry.get "handelc") program;
  measure "after fusing temporaries" (Registry.get "handelc")
    (Loopopt.fuse_program program);
  print_endline
    "\nBoth recodings change the *source* to change the timing — the \
     designer\nworks around the language's clock rule.\n";

  print_endline
    "Part 2: meeting timing by *declaring* it (HardwareC constraints)\n";
  let kernel max_cycles =
    Printf.sprintf
      {|
      int f(int a, int b, int c, int d) {
        int r = 0;
        constrain(1, %d) {
          int p0 = a * b;
          int p1 = c * d;
          int p2 = (a + c) * (b + d);
          int s0 = p0 + p1;
          r = s0 ^ p2;
        }
        return r;
      }
      |}
      max_cycles
  in
  List.iter
    (fun max_cycles ->
      let program = Typecheck.parse_and_check (kernel max_cycles) in
      match Hardwarec.compile program ~entry:"f" with
      | design, report ->
        let r = design.Design.run (Design.int_args [ 3; 5; 7; 9 ]) in
        Printf.printf
          "  constrain(1, %d): met with '%s' (%d total cycles, result %d)\n"
          max_cycles report.Hardwarec.chosen_allocation
          (Option.get r.Design.cycles)
          (Bitvec.to_int (Option.get r.Design.result));
        List.iter
          (fun (alloc, steps, ok) ->
            Printf.printf "      tried %-30s -> %d steps %s\n" alloc steps
              (if ok then "(meets constraint)" else "(too slow)"))
          report.Hardwarec.exploration
      | exception Hardwarec.Unsatisfiable msg ->
        Printf.printf "  constrain(1, %d): unsatisfiable (%s)\n" max_cycles msg)
    [ 4; 2; 1 ];
  print_endline
    "\nSame source every time; only the constraint moved.  \"While such \
     constraints\ncan be subtle for the designer and challenging for the \
     compiler, they allow\neasier design-space exploration.\""
