(* BENCH_simcomp: compiled engines vs the interpreters, in cycles per
   second.

   The tentpole claim of the compiled-simulation work is 10-100x
   cycles/sec from letting the design build its own evaluator instead of
   walking graph structures every cycle.  This experiment measures every
   engine in the house on the full sequential workload suite:

   - compiled FSMD (Fsmdcomp): per-state closures over unboxed int
     register files, compiled once per design and reused — the engine
     Design.run dispatches to by default;
   - interpreting FSMD (Rtlsim): re-walks each state's instruction list
     every cycle;
   - compiled netlist (Netcomp): a packed code array over the
     elaborated netlist, compiled once and reset between runs;
   - interpreting netlist (Neteval event-driven and full-sweep): the
     graph-walking engines the ROADMAP item is aimed at;
   - compiled C2Verilog stack machine (C2vcomp): the kernel compiled by
     the C2Verilog backend, decoded once into int arrays, its memory
     kept and restored between runs — against the Bitvec-word
     C2v_machine it is checked against.  A different design of the same
     kernel, so its cycle counts are its own.

   The headline speedup column is the default compiled engine against
   the event-driven netlist interpreter — the same design simulated
   cycle-accurately both ways (the netlist run takes one extra cycle for
   the done handshake; each engine's cycles/sec uses its own cycle
   count).  The same-level ratios (Fsmdcomp/Rtlsim, Netcomp/Neteval)
   are in the JSON too, so the abstraction-level contribution is never
   hidden.

   Every benchmarked run is first verified against its interpreting
   oracle (full outcome equality at the FSMD level: result, cycles,
   globals, memories, state visits; outputs and cycles at the netlist
   level; result, cycles, instructions, globals and memories on the
   stack machine) — speed without the cross-check is how semantics drift in.
   Results go to BENCH_simcomp.json through the unified metrics
   registry. *)

let kernels = Workloads.sequential

type row = {
  name : string;
  args : int list;
  fsmd_cycles : int;
  net_cycles : int;
  c2v_cycles : int;
  fsmd_comp_cps : float; (* Fsmdcomp, precompiled *)
  fsmd_interp_cps : float; (* Rtlsim *)
  net_comp_cps : float; (* Netcomp, precompiled *)
  net_event_cps : float; (* Neteval event-driven *)
  net_sweep_cps : float; (* Neteval full-sweep *)
  c2v_comp_cps : float; (* C2vcomp, one engine reused *)
  c2v_interp_cps : float; (* C2v_machine *)
  verified : bool;
}

let lowered (w : Workloads.t) =
  let program = Workloads.parse w in
  let l, _ = Passes.lower_simplify program ~entry:w.Workloads.entry in
  l.Lower.func

let fsmd_of func =
  Fsmd.of_func func ~schedule_block:(fun blk ->
      Schedule.list_schedule func Schedule.default_allocation blk.Cir.instrs)

(* Seconds per run, from an adaptively repeated loop: Sys.time has
   coarse granularity, so repeat until the measured window is at least
   ~50ms (the counters are deterministic; only wall time varies). *)
let time_runs f =
  ignore (f ());
  let rec go repeats =
    let t0 = Sys.time () in
    for _ = 1 to repeats do
      ignore (f ())
    done;
    let dt = Sys.time () -. t0 in
    if dt < 0.05 && repeats < 1 lsl 16 then go (repeats * 4)
    else dt /. float_of_int repeats
  in
  go 1

let bv_opt_eq a b =
  match (a, b) with
  | Some x, Some y -> Bitvec.equal x y
  | None, None -> true
  | _ -> false

let named_eq eq a b =
  List.length a = List.length b
  && List.for_all2 (fun (n1, v1) (n2, v2) -> n1 = n2 && eq v1 v2) a b

let same_c2v (a : C2v_machine.outcome) (b : C2v_machine.outcome) =
  bv_opt_eq a.C2v_machine.return_value b.C2v_machine.return_value
  && a.C2v_machine.cycles = b.C2v_machine.cycles
  && a.C2v_machine.instructions_executed = b.C2v_machine.instructions_executed
  && named_eq Bitvec.equal a.C2v_machine.globals b.C2v_machine.globals
  && named_eq
       (fun x y ->
         Array.length x = Array.length y && Array.for_all2 Bitvec.equal x y)
       a.C2v_machine.memories b.C2v_machine.memories

(* The kernel's C2Verilog design: the compiled engine (built once, its
   memory restored between runs) and the oracle, with two runs of the
   compiled engine checked against the oracle before any timing.  A
   design or vector the int engine cannot hold is no benchmark: the
   kernel fails. *)
let c2v_columns (w : Workloads.t) args =
  let design =
    C2v_backend.compile (Workloads.parse w) ~entry:w.Workloads.entry
  in
  match design.Design.artifact with
  | Design.Stack_machine { compiled; ret_width } ->
    let engine = C2vcomp.create compiled ~ret_width in
    let words =
      match C2vcomp.words args with
      | Some words -> words
      | None -> failwith "simcomp bench: arguments wider than an int"
    in
    let run_c () = C2vcomp.execute engine words in
    let run_i () = C2v_machine.run compiled ~ret_width ~args in
    let oi = run_i () in
    let oc = run_c () in
    let verified = same_c2v oc oi && same_c2v (run_c ()) oi in
    let cycles = oi.C2v_machine.cycles in
    ( cycles,
      float_of_int cycles /. Float.max 1e-9 (time_runs run_c),
      float_of_int cycles /. Float.max 1e-9 (time_runs run_i),
      verified )
  | _ -> failwith "simcomp bench: c2verilog built no stack machine"

let run_kernel (w : Workloads.t) =
  let func = lowered w in
  let fsmd = fsmd_of func in
  let nl = (Rtlgen.elaborate fsmd).Rtlgen.netlist in
  let int_args = List.hd w.Workloads.arg_sets in
  let args = List.map (Bitvec.of_int ~width:64) int_args in
  (* same argument resizing Rtlgen.simulate uses *)
  let inputs =
    List.map2
      (fun (name, r) v ->
        (name, Bitvec.resize ~signed:true ~width:(Cir.reg_width func r) v))
      func.Cir.fn_params args
  in
  (* compile once; the timed loops reuse these engines *)
  let feng = Fsmdcomp.create fsmd in
  let neng = Netcomp.create nl in
  let run_fc () = Fsmdcomp.execute feng ~args in
  let run_fi () = Rtlsim.run fsmd ~args in
  let run_nc () =
    Netcomp.reset neng;
    Netcomp.drive neng ~inputs ~done_name:"done" ~max_cycles:Rtlsim.max_cycles
  in
  let run_ne () =
    Neteval.run_until_done nl ~inputs ~done_name:"done"
      ~max_cycles:Rtlsim.max_cycles
  in
  let run_ns () =
    let t = Neteval.create ~strategy:Neteval.Full_sweep nl in
    Neteval.drive t ~inputs ~done_name:"done" ~max_cycles:Rtlsim.max_cycles
  in
  (* verify compiled = interpreting oracle at both levels before timing *)
  let oc = run_fc () and oi = run_fi () in
  let fsmd_ok =
    bv_opt_eq oc.Rtlsim.return_value oi.Rtlsim.return_value
    && oc.Rtlsim.cycles = oi.Rtlsim.cycles
    && named_eq Bitvec.equal oc.Rtlsim.globals oi.Rtlsim.globals
    && named_eq
         (fun a b ->
           Array.length a = Array.length b && Array.for_all2 Bitvec.equal a b)
         oc.Rtlsim.memories oi.Rtlsim.memories
    && oc.Rtlsim.states_visited = oi.Rtlsim.states_visited
  in
  match (run_nc (), run_ne (), run_ns ()) with
  | Ok (nc_out, nc_cycles), Ok (ne_out, ne_cycles, _), Ok (ns_out, ns_cycles) ->
    let c2v_cycles, c2v_comp_cps, c2v_interp_cps, c2v_ok =
      c2v_columns w args
    in
    let net_ok =
      nc_cycles = ne_cycles
      && ne_cycles = ns_cycles
      && named_eq Bitvec.equal nc_out ne_out
      && named_eq Bitvec.equal nc_out ns_out
    in
    let cps cycles t = float_of_int cycles /. Float.max 1e-9 t in
    { name = w.Workloads.name;
      args = int_args;
      fsmd_cycles = oc.Rtlsim.cycles;
      net_cycles = nc_cycles;
      c2v_cycles;
      fsmd_comp_cps = cps oc.Rtlsim.cycles (time_runs run_fc);
      fsmd_interp_cps = cps oc.Rtlsim.cycles (time_runs run_fi);
      net_comp_cps = cps nc_cycles (time_runs run_nc);
      net_event_cps = cps nc_cycles (time_runs run_ne);
      net_sweep_cps = cps nc_cycles (time_runs run_ns);
      c2v_comp_cps;
      c2v_interp_cps;
      verified = fsmd_ok && net_ok && c2v_ok }
  | _ -> failwith ("simcomp bench: " ^ w.Workloads.name ^ " timed out")

(* headline: the default compiled engine vs the event-driven netlist
   interpreter (the graph-walking engine of BENCH_neteval) *)
let speedup r = r.fsmd_comp_cps /. Float.max 1e-9 r.net_event_cps

let json_of_row r =
  Metrics.Obj
    [ ("kernel", Metrics.String r.name);
      ("args", Metrics.List (List.map (fun a -> Metrics.Int a) r.args));
      ("fsmd_cycles", Metrics.Int r.fsmd_cycles);
      ("netlist_cycles", Metrics.Int r.net_cycles);
      ("c2verilog_cycles", Metrics.Int r.c2v_cycles);
      (* every compiled engine held the kernel: [create] raises on any
         design it cannot hold *)
      ("compiled_engines", Metrics.Bool true);
      ("fsmd_compiled_cycles_per_sec", Metrics.Fixed (0, r.fsmd_comp_cps));
      ("fsmd_interp_cycles_per_sec", Metrics.Fixed (0, r.fsmd_interp_cps));
      ("netlist_compiled_cycles_per_sec", Metrics.Fixed (0, r.net_comp_cps));
      ("netlist_event_cycles_per_sec", Metrics.Fixed (0, r.net_event_cps));
      ("netlist_sweep_cycles_per_sec", Metrics.Fixed (0, r.net_sweep_cps));
      ("c2verilog_compiled_cycles_per_sec", Metrics.Fixed (0, r.c2v_comp_cps));
      ("c2verilog_interp_cycles_per_sec", Metrics.Fixed (0, r.c2v_interp_cps));
      ("speedup_vs_event_interp", Metrics.Fixed (1, speedup r));
      ( "speedup_vs_sweep_interp",
        Metrics.Fixed (1, r.fsmd_comp_cps /. Float.max 1e-9 r.net_sweep_cps) );
      ( "fsmd_compiled_vs_rtlsim",
        Metrics.Fixed (2, r.fsmd_comp_cps /. Float.max 1e-9 r.fsmd_interp_cps)
      );
      ( "netlist_compiled_vs_event",
        Metrics.Fixed (2, r.net_comp_cps /. Float.max 1e-9 r.net_event_cps) );
      ( "c2verilog_compiled_vs_interp",
        Metrics.Fixed (2, r.c2v_comp_cps /. Float.max 1e-9 r.c2v_interp_cps)
      );
      ("verified_vs_interpreters", Metrics.Bool r.verified) ]

let emit_json path rows =
  let m = Metrics.create () in
  Metrics.set_string m "experiment"
    "compiled simulation: compiled engines vs interpreters (cycles/sec)";
  Metrics.set_string m "ocaml" Sys.ocaml_version;
  Metrics.set_int m "cores" (Domain.recommended_domain_count ());
  Metrics.set m "kernels" (Metrics.List (List.map json_of_row rows));
  Metrics.write_file m path

let print_rows rows =
  Printf.printf "\ncycles/sec by engine (compiled engines precompiled):\n";
  let widths = [ 14; 7; 10; 10; 10; 9; 9; 8; 10; 10; 9 ] in
  Tables.table widths
    [ "kernel"; "cycles"; "fsmd-comp"; "rtlsim"; "net-comp"; "event";
      "sweep"; "speedup"; "c2v-comp"; "c2v-mach"; "verified" ]
    (List.map
       (fun r ->
         let m f = Printf.sprintf "%.2fM" (f /. 1e6) in
         [ r.name; Tables.i r.fsmd_cycles;
           m r.fsmd_comp_cps; m r.fsmd_interp_cps; m r.net_comp_cps;
           m r.net_event_cps; m r.net_sweep_cps;
           Printf.sprintf "%.0fx" (speedup r);
           m r.c2v_comp_cps; m r.c2v_interp_cps;
           (if r.verified then "yes" else "NO") ])
       rows)

let run_kernels ~out kernels =
  Tables.section "BENCH" "Compiled simulation: compiled engines vs interpreters"
    "the design builds its own simulator — per-state closures at the FSMD \
     level, packed code at the netlist level, decoded int code for the \
     C2Verilog stack machine — with the interpreters kept as bit-exact \
     differential oracles; speedup column is the default compiled engine \
     vs the event-driven netlist interpreter";
  let rows = List.map run_kernel kernels in
  print_rows rows;
  List.iter
    (fun r ->
      if not r.verified then
        failwith
          (Printf.sprintf
             "simcomp bench: %s diverged from the interpreters — engine bug"
             r.name))
    rows;
  emit_json out rows;
  let fast = List.length (List.filter (fun r -> speedup r >= 10.) rows) in
  Printf.printf
    "\nAll runs verified against the interpreting oracles; %d/%d kernels \
     at >= 10x vs the event-driven interpreter; wrote %s\n"
    fast (List.length rows) out

let run_all () = run_kernels ~out:"BENCH_simcomp.json" kernels

(* CI smoke: one kernel, same verification, written beside the full
   results rather than over them *)
let run_smoke () = run_kernels ~out:"BENCH_simcomp.smoke.json" [ Workloads.gcd ]
