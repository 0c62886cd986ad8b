(* Ablations (A1..A4): sensitivity of the headline results to the design
   choices DESIGN.md calls out — the chaining budget, the functional-unit
   allocation, memory ports, and the asynchronous handshake overhead.
   These are not paper claims; they check that the E-series conclusions
   are not artifacts of one parameter setting. *)

let compile_bachc_with resources (w : Workloads.t) =
  let program = Workloads.parse w in
  Bachc.compile ~config:(Config.with_resources resources Config.default)
    program ~entry:w.Workloads.entry

let run_cycles design args =
  let r = design.Design.run (Design.int_args args) in
  (Option.get r.Design.cycles, Option.get design.Design.clock_period)

(* A1: the chaining budget trades cycles against clock period; wall time
   should have a sweet spot, not a monotone trend. *)
let chain_budget_sweep () =
  Tables.section "A1" "Ablation: operator-chaining budget (Bach C, matmul)"
    "design choice: how much combinational delay may share one control step";
  let widths = [ 12; 9; 9; 12 ] in
  let rows =
    List.map
      (fun budget ->
        let resources =
          { Schedule.default_allocation with Schedule.chain_budget = budget }
        in
        let design = compile_bachc_with resources Workloads.matmul in
        let cycles, period = run_cycles design [ 3 ] in
        [ (if budget = infinity then "unlimited" else Tables.f0 budget);
          Tables.i cycles; Tables.f1 period;
          Tables.f0 (float_of_int cycles *. period) ])
      [ 1.; 5.; 10.; 20.; 40.; 80.; infinity ]
  in
  Tables.table widths [ "budget"; "cycles"; "period"; "wall time" ] rows;
  Printf.printf
    "\nExpected: cycles fall and the period grows as the budget loosens; \
     wall time\nbottoms out in the middle — neither extreme rule (one op \
     per cycle, chain\neverything) is optimal, which is the E3 spectrum in \
     one knob.\n"

(* A2: functional-unit allocation. *)
let resource_sweep () =
  Tables.section "A2" "Ablation: functional-unit allocation (Bach C)"
    "design choice: how many adders/multipliers the list scheduler may use";
  let allocations =
    [ ("1 add, 1 mul", Some 1, Some 1);
      ("2 add, 1 mul", Some 2, Some 1);
      ("2 add, 2 mul", Some 2, Some 2);
      ("4 add, 4 mul", Some 4, Some 4);
      ("unlimited", None, None) ]
  in
  List.iter
    (fun (w : Workloads.t) ->
      Printf.printf "\n%s:\n" w.Workloads.name;
      let widths = [ 14; 9; 9 ] in
      let rows =
        List.map
          (fun (label, adders, multipliers) ->
            let resources =
              { Schedule.default_allocation with
                Schedule.adders; multipliers }
            in
            let design = compile_bachc_with resources w in
            let cycles, period =
              run_cycles design (List.hd w.Workloads.arg_sets)
            in
            [ label; Tables.i cycles; Tables.f1 period ])
          allocations
      in
      Tables.table widths [ "allocation"; "cycles"; "period" ] rows)
    [ Workloads.fir; Workloads.matmul ];
  Printf.printf
    "\nExpected: diminishing returns — cycles shrink from 1 to 2 units and \
     then\nflatten (the E1 ILP ceiling seen from the resource side).\n"

(* A3: memory ports per region. *)
let memory_port_sweep () =
  Tables.section "A3" "Ablation: memory ports per region (Bach C, dotprod)"
    "design choice: loads per region per step (the partitioned-memory \
     advantage of E9 depends on it)";
  let widths = [ 16; 9; 9 ] in
  let rows =
    List.map
      (fun ports ->
        let resources =
          { Schedule.default_allocation with Schedule.mem_read_ports = ports }
        in
        let design = compile_bachc_with resources Workloads.dotprod in
        let cycles, period = run_cycles design [ 3; -2 ] in
        [ Printf.sprintf "%d read port%s" ports (if ports = 1 then "" else "s");
          Tables.i cycles; Tables.f1 period ])
      [ 1; 2; 4 ]
  in
  Tables.table widths [ "ports"; "cycles"; "period" ] rows;
  Printf.printf
    "\nExpected: little effect here because dotprod reads *different* \
     regions in\neach step (the partitioning already parallelized them) — \
     ports matter within\na region, partitioning matters across regions.\n"

(* A4: the asynchronous handshake overhead. *)
let handshake_sweep () =
  Tables.section "A4" "Ablation: CASH handshake overhead"
    "substitution check: E6's async-wins conclusion must survive realistic \
     per-token request/acknowledge costs";
  let widths = [ 11; 12; 12; 12 ] in
  List.iter
    (fun (w : Workloads.t) ->
      Printf.printf "\n%s:\n" w.Workloads.name;
      let program = Workloads.parse w in
      let sync_time =
        let d =
          Registry.compile (Registry.get "transmogrifier") program
            ~entry:w.Workloads.entry
        in
        let r = d.Design.run (Design.int_args (List.hd w.Workloads.arg_sets)) in
        float_of_int (Option.get r.Design.cycles)
        *. Option.get d.Design.clock_period
      in
      let rows =
        List.map
          (fun handshake ->
            let design =
              Cash.compile ~handshake program ~entry:w.Workloads.entry
            in
            let r =
              design.Design.run (Design.int_args (List.hd w.Workloads.arg_sets))
            in
            let t = Option.get r.Design.time_units in
            [ Tables.f0 handshake; Tables.f0 t; Tables.f0 sync_time;
              Tables.f2 (sync_time /. t) ])
          [ 0.; 1.; 2.; 4.; 8.; 16. ]
      in
      Tables.table widths
        [ "handshake"; "async time"; "sync (tmcc)"; "sync/async" ] rows)
    [ Workloads.gcd; Workloads.crc ];
  Printf.printf
    "\nExpected: gcd's advantage shrinks with overhead but survives \
     moderate costs\n(the division dominates); crc — already a loss at the \
     default — only gets\nworse, confirming the E6 crossover is \
     overhead-driven.\n"

let run_all () =
  chain_budget_sweep ();
  resource_sweep ();
  memory_port_sweep ();
  handshake_sweep ()
