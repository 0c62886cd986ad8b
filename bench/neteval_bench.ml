(* BENCH_neteval: full-sweep vs event-driven netlist settling.

   The netlist evaluator is the workhorse behind every cross-backend
   experiment, and Edwards' survey argues simulation speed is what made
   C-like hardware languages attractive in the first place.  This
   experiment elaborates the low-activity kernels (gcd, isqrt-newton,
   crc) to netlists and runs them to completion under both settling
   strategies, recording node evaluations, change events and wall time.
   Results are printed as a table and emitted to BENCH_neteval.json so
   the perf trajectory is tracked across PRs.

   Low-activity means: per cycle only a small cone of the netlist (the
   active FSMD state's datapath slice) actually changes, so the
   event-driven evaluator should do several times fewer node evaluations
   per cycle than the full sweep.  Both runs must be bit-exact. *)

let kernels = [ Workloads.gcd; Workloads.isqrt_newton; Workloads.crc ]

type row = {
  name : string;
  args : int list;
  nodes : int;
  cycles : int;
  full : Neteval.stats;
  event : Neteval.stats;
  bit_exact : bool;
}

let lowered (w : Workloads.t) =
  let program = Workloads.parse w in
  let l, _ = Passes.lower_simplify program ~entry:w.Workloads.entry in
  l.Lower.func

(* Wall times from a single run are dominated by clock granularity for
   these small kernels; take the fastest of a few repetitions (the stats
   counters are deterministic and identical across repetitions). *)
let timed_run ~strategy ~repeats e ~args ~func =
  let best = ref None in
  for _ = 1 to repeats do
    match Rtlgen.simulate ~strategy e ~args ~func with
    | Ok (outputs, cycles, st) -> (
      match !best with
      | Some (_, _, prev) when prev.Neteval.wall_time <= st.Neteval.wall_time
        -> ()
      | _ -> best := Some (outputs, cycles, st))
    | Error `Timeout -> failwith "neteval bench: timeout"
  done;
  Option.get !best

let run_kernel (w : Workloads.t) =
  let func = lowered w in
  let fsmd =
    Fsmd.of_func func ~schedule_block:(fun blk ->
        Schedule.list_schedule func Schedule.default_allocation blk.Cir.instrs)
  in
  let e = Rtlgen.elaborate fsmd in
  let int_args = List.hd w.Workloads.arg_sets in
  let args = List.map (Bitvec.of_int ~width:64) int_args in
  let f_out, f_cycles, full =
    timed_run ~strategy:Neteval.Full_sweep ~repeats:5 e ~args ~func
  in
  let e_out, e_cycles, event =
    timed_run ~strategy:Neteval.Event_driven ~repeats:5 e ~args ~func
  in
  let bit_exact =
    f_cycles = e_cycles
    && List.length f_out = List.length e_out
    && List.for_all2
         (fun (n1, v1) (n2, v2) -> n1 = n2 && Bitvec.equal v1 v2)
         f_out e_out
  in
  { name = w.Workloads.name;
    args = int_args;
    nodes = Netlist.length e.Rtlgen.netlist;
    cycles = e_cycles;
    full;
    event;
    bit_exact }

let evals_per_settle (st : Neteval.stats) =
  float_of_int st.Neteval.nodes_evaluated
  /. float_of_int (max 1 st.Neteval.settles)

let reduction r =
  float_of_int r.full.Neteval.nodes_evaluated
  /. float_of_int (max 1 r.event.Neteval.nodes_evaluated)

(* The report goes through the unified metrics registry (Obs.Metrics), so
   BENCH_neteval.json shares its renderer — and its determinism rules —
   with `chlsc compile --metrics-json`.  Counter values are exact ints;
   ratios render at fixed precision; only wall_ms varies run to run. *)
let json_of_row r =
  let strategy_json (st : Neteval.stats) =
    Metrics.Obj
      [ ("node_evals", Metrics.Int st.Neteval.nodes_evaluated);
        ("events", Metrics.Int st.Neteval.events);
        ("evals_per_settle", Metrics.Fixed (2, evals_per_settle st));
        ("wall_ms", Metrics.Fixed (4, st.Neteval.wall_time *. 1000.)) ]
  in
  Metrics.Obj
    [ ("kernel", Metrics.String r.name);
      ("args", Metrics.List (List.map (fun a -> Metrics.Int a) r.args));
      ("nodes", Metrics.Int r.nodes);
      ("cycles", Metrics.Int r.cycles);
      ("full_sweep", strategy_json r.full);
      ("event_driven", strategy_json r.event);
      ("eval_reduction", Metrics.Fixed (2, reduction r));
      ("bit_exact", Metrics.Bool r.bit_exact) ]

let emit_json path rows =
  let m = Metrics.create () in
  Metrics.set_string m "experiment"
    "neteval settle: full-sweep vs event-driven";
  Metrics.set m "kernels" (Metrics.List (List.map json_of_row rows));
  Metrics.write_file m path

let run_all () =
  Tables.section "BENCH" "Netlist simulation: full-sweep vs event-driven settle"
    "fast behavioural simulation is the C-like methodology's core appeal; \
     the event-driven evaluator should re-evaluate only the active cone";
  let rows = List.map run_kernel kernels in
  let widths = [ 14; 7; 7; 12; 12; 10; 10; 9 ] in
  Tables.table widths
    [ "kernel"; "nodes"; "cycles"; "sweep ev/st"; "event ev/st"; "sweep ms";
      "event ms"; "reduction" ]
    (List.map
       (fun r ->
         [ r.name; Tables.i r.nodes; Tables.i r.cycles;
           Tables.f1 (evals_per_settle r.full);
           Tables.f1 (evals_per_settle r.event);
           Printf.sprintf "%.3f" (r.full.Neteval.wall_time *. 1000.);
           Printf.sprintf "%.3f" (r.event.Neteval.wall_time *. 1000.);
           Tables.f1 (reduction r) ^ "x" ])
       rows);
  List.iter
    (fun r ->
      if not r.bit_exact then
        failwith
          (Printf.sprintf
             "neteval bench: %s diverged between strategies — evaluator bug"
             r.name))
    rows;
  emit_json "BENCH_neteval.json" rows;
  Printf.printf
    "\nAll kernels bit-exact across strategies; wrote BENCH_neteval.json\n"
