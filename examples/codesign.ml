(* Hardware/software codesign: the paper's second motivation — "today's
   systems usually contain a mix of hardware and software, and it is often
   unclear initially which portions to implement in hardware.  Here, using
   a single language should simplify the migration task."

   This example does exactly that migration study: one C source with two
   candidate kernels; each is estimated in software (reference interpreter
   step counts x a CPI model) and in hardware (cycle-accurate simulation x
   estimated clock), and the tool recommends a partition.

   Run with:  dune exec examples/codesign.exe *)

(* A toy software CPU model: each interpreter statement-step costs ~6
   machine cycles on a 1ns-cycle processor; hardware time units are gate
   delays of ~0.1ns.  Both land in nanoseconds. *)
let software_ns steps = float_of_int steps *. 6.0 *. 1.0
let hardware_ns cycles period = float_of_int cycles *. period *. 0.1

type candidate = { name : string; source : string; entry : string; args : int list }

let candidates =
  [ { name = "crc8 (bit-serial, control heavy)";
      source = (Workloads.crc).Workloads.source;
      entry = "crc8"; args = [ 0xA5 ] };
    { name = "fir (dataflow, multiply rich)";
      source = (Workloads.fir).Workloads.source;
      entry = "fir"; args = [ 5; -3 ] };
    { name = "bsort (data-dependent swaps)";
      source = (Workloads.bsort).Workloads.source;
      entry = "bsort"; args = [ 7 ] } ]

let () =
  print_endline "HW/SW codesign: where should each kernel run?\n";
  Printf.printf "%-36s %12s %12s %10s %s\n" "kernel" "sw (ns)" "hw (ns)"
    "speedup" "recommendation";
  print_endline (String.make 92 '-');
  List.iter
    (fun c ->
      let program = Typecheck.parse_and_check c.source in
      (* software estimate: untimed interpreter work metric *)
      let outcome =
        Interp.run program ~entry:c.entry
          ~args:(List.map (Bitvec.of_int ~width:64) c.args)
      in
      let sw = software_ns outcome.Interp.steps in
      (* hardware estimate: scheduled FSMD *)
      let design =
        Registry.compile (Registry.get "bachc") program ~entry:c.entry
      in
      let r = design.Design.run (Design.int_args c.args) in
      let hw =
        hardware_ns (Option.get r.Design.cycles)
          (Option.get design.Design.clock_period)
      in
      (* sanity: both computed the same value *)
      assert (
        Option.map Bitvec.to_int r.Design.result
        = Option.map Bitvec.to_int outcome.Interp.return_value);
      let speedup = sw /. hw in
      Printf.printf "%-36s %12.0f %12.0f %9.1fx %s\n" c.name sw hw speedup
        (if speedup > 4.0 then "move to hardware"
         else if speedup > 1.5 then "worth considering"
         else "keep in software");
      ())
    candidates;
  print_endline
    "\nThe point of a single-language flow: the same source ran through the\n\
     interpreter (software estimate) and through synthesis (hardware \
     estimate)\nwithout rewriting — the migration the paper's proponents \
     promise.";
  (* and when a kernel moves to hardware, SpecC-style refinement checks the
     migration step by step *)
  let c = List.nth candidates 1 in
  let program = Typecheck.parse_and_check c.source in
  let _, report =
    Specc.refine program ~entry:c.entry ~test_vectors:[ c.args; [ 1; 2 ] ]
  in
  Printf.printf
    "\nSpecC refinement of '%s': %d checks across 4 levels, all equivalent \
     = %b\n"
    c.name
    (List.length report.Specc.checks)
    report.Specc.all_equivalent
