(* The experiment implementations (T1, E1..E9).  bench/main.ml drives
   these and adds the bechamel compile-performance section (E10).  Each
   experiment regenerates one paper artifact or quantifiable claim; the
   mapping is documented in DESIGN.md and results are recorded in
   EXPERIMENTS.md. *)

let kernels_for_ilp =
  [ Workloads.gcd; Workloads.fib; Workloads.fir; Workloads.dotprod;
    Workloads.matmul; Workloads.bsort; Workloads.crc; Workloads.checksum;
    Workloads.histogram; Workloads.isqrt_newton; Workloads.transpose ]

(* Compile through the driver, failing loudly — the experiments only push
   workloads at backends whose dialect accepts them. *)
let driver_compile session backend =
  match Driver.compile session backend with
  | Ok design -> design
  | Error e -> failwith (Driver.render_error e)

let lowered (w : Workloads.t) =
  let program = Workloads.parse w in
  let l, _ = Passes.lower_simplify program ~entry:w.Workloads.entry in
  l.Lower.func

(* ---------------------------------------------------------------- T1 -- *)

let table1 () =
  Tables.section "T1" "Table 1: C-like languages/compilers (chronological)"
    "the paper's Table 1 catalogs eleven languages with one-line \
     characterisations";
  print_string (Dialect.render_table1 ());
  Printf.printf
    "\nEvery row is implemented as a CHLS dialect + backend (see DESIGN.md).\n"

(* ---------------------------------------------------------------- E1 -- *)

let ilp_limits () =
  Tables.section "E1" "Instruction-level parallelism limits (Wall-style)"
    "\"ILP beyond about five simultaneous instructions is unlikely due to \
     fundamental limits [25,26]\"";
  let windows = [ 2; 4; 8; 16; 32; 64; 128; 256 ] in
  let widths = [ 10; 8 ] @ List.map (fun _ -> 7) windows @ [ 9; 8 ] in
  let header =
    [ "kernel"; "instrs" ]
    @ List.map (fun w -> Printf.sprintf "w=%d" w) windows
    @ [ "dataflow"; "no-spec" ]
  in
  let rows =
    List.map
      (fun (w : Workloads.t) ->
        let func = lowered w in
        let trace =
          Ilp_limits.trace_of func ~args:(List.hd w.Workloads.arg_sets)
        in
        let ipc window =
          (Ilp_limits.measure trace
             { Ilp_limits.window; renaming = true; speculation = `Perfect })
            .Ilp_limits.ipc
        in
        let dataflow =
          (Ilp_limits.measure trace
             { Ilp_limits.window = max_int; renaming = true;
               speculation = `Perfect })
            .Ilp_limits.ipc
        and no_spec =
          (Ilp_limits.measure trace
             { Ilp_limits.window = max_int; renaming = true;
               speculation = `None })
            .Ilp_limits.ipc
        in
        [ w.Workloads.name; Tables.i (List.length trace) ]
        @ List.map (fun win -> Tables.f2 (ipc win)) windows
        @ [ Tables.f2 dataflow; Tables.f2 no_spec ])
      kernels_for_ilp
  in
  Tables.table widths header rows;
  Printf.printf
    "\nShape to check: IPC grows with window size but saturates in the \
     single digits;\nremoving speculation (no-spec) collapses it toward ~1-2 \
     — branches, not window\nsize, are the binding limit, matching Wall.\n"

(* ---------------------------------------------------------------- E2 -- *)

let pipeline_sources =
  [ ( "vecsum", `Regular,
      {|
      int v[64];
      int f(int n) {
        int acc = 0;
        for (int i = 0; i < 64; i = i + 1) { acc = acc + v[i]; }
        return acc + n;
      }
      |} );
    ( "dotprod", `Regular,
      {|
      int va[64];
      int vb[64];
      int f(int n) {
        int acc = 0;
        for (int i = 0; i < 64; i = i + 1) { acc = acc + va[i] * vb[i]; }
        return acc + n;
      }
      |} );
    ( "vecscale", `Regular,
      {|
      int src[64];
      int dst[64];
      int f(int k) {
        for (int i = 0; i < 64; i = i + 1) { dst[i] = src[i] * k + 3; }
        return dst[0];
      }
      |} );
    ( "poly-eval", `Irregular_recurrence,
      {|
      int cs[64];
      int f(int x) {
        int acc = 0;
        for (int i = 0; i < 64; i = i + 1) { acc = acc * x + cs[i]; }
        return acc;
      }
      |} );
    ( "gcd", `Irregular_recurrence,
      "int f(int a, int b) { while (b != 0) { int t = b; b = a % b; a = t; } return a; }"
    );
    ( "bsort-inner", `Irregular_control,
      {|
      int data[16];
      int f(int n) {
        int acc = 0;
        for (int i = 0; i < 16; i = i + 1) {
          if (data[i] > n) { acc = acc + 1; } else { acc = acc - data[i]; }
        }
        return acc;
      }
      |} ) ]

let pipelining () =
  Tables.section "E2" "Pipelining: regular loops vs the general case"
    "\"Pipelining works well on regular loops, e.g., in scientific \
     computation, but is less effective in general.  Again, dependencies \
     and control-flow transfers limit parallelism.\"";
  let widths = [ 12; 22; 7; 7; 5; 10; 8 ] in
  Tables.table widths
    [ "loop"; "class"; "RecMII"; "ResMII"; "II"; "seq c/iter"; "speedup" ]
    (List.map
       (fun (name, cls, src) ->
         let program = Typecheck.parse_and_check src in
         let func =
           (fst (Passes.lower_simplify program ~entry:"f")).Lower.func
         in
         let class_name =
           match cls with
           | `Regular -> "regular (scientific)"
           | `Irregular_recurrence -> "recurrence-bound"
           | `Irregular_control -> "control-flow-bound"
         in
         match Pipeline.modulo_schedule func with
         | r when r.Pipeline.fallback ->
           [ name; class_name; Tables.i r.Pipeline.rec_mii;
             Tables.i r.Pipeline.res_mii; "-";
             Tables.i r.Pipeline.sequential_cycles; "1.00 (diverged)" ]
         | r ->
           [ name; class_name; Tables.i r.Pipeline.rec_mii;
             Tables.i r.Pipeline.res_mii; Tables.i r.Pipeline.ii;
             Tables.i r.Pipeline.sequential_cycles;
             Tables.f2 r.Pipeline.speedup ]
         | exception Pipeline.Irregular reason ->
           [ name; class_name; "-"; "-"; "-"; "-";
             "1.00 (" ^ reason ^ ")" ])
       pipeline_sources);
  if Pipeline.fallback_count () > 0 then
    Printf.printf "sched.modulo.fallbacks: %d\n" (Pipeline.fallback_count ());
  (* extension: if-conversion rescues the control-flow-bound loop *)
  (match
     List.find_opt (fun (_, cls, _) -> cls = `Irregular_control)
       pipeline_sources
   with
  | None -> ()
  | Some (name, _, src) ->
    let program = Typecheck.parse_and_check src in
    let func =
      (fst (Passes.lower_simplify program ~entry:"f")).Lower.func
    in
    let converted, branches = Ifconv.convert func in
    (match Pipeline.modulo_schedule converted with
    | r ->
      Printf.printf
        "\nExtension: %s + if-conversion (%d branch%s predicated): \
         RecMII=%d ResMII=%d\nII=%d, speedup %.2fx — the classic rescue for \
         control-flow-bound loops.\n"
        name branches (if branches = 1 then "" else "es")
        r.Pipeline.rec_mii r.Pipeline.res_mii r.Pipeline.ii
        r.Pipeline.speedup
    | exception Pipeline.Irregular reason ->
      Printf.printf "\nif-conversion failed to regularize %s: %s\n" name
        reason));
  Printf.printf
    "\nShape to check: regular loops reach small II (large speedup); the \
     division\nrecurrence pins gcd's II at the divider latency; internal \
     control flow defeats\nmodulo scheduling — until if-conversion \
     straightens the body.\n"

(* ---------------------------------------------------------------- E3 -- *)

let timing_backends =
  [ (Registry.get "transmogrifier"); (Registry.get "bachc"); (Registry.get "handelc");
    (Registry.get "systemc"); (Registry.get "c2verilog"); (Registry.get "cash") ]

let timing_schemes () =
  Tables.section "E3"
    "The timing-control spectrum: cycles, clock and wall-time per scheme"
    "\"Solutions range from mandatory cycle annotations to implicit rules\" \
     — each rule trades cycle count against clock period differently";
  List.iter
    (fun (w : Workloads.t) ->
      Printf.printf "\n%s (%s), args = %s\n" w.Workloads.name
        w.Workloads.description
        (String.concat ","
           (List.map string_of_int (List.hd w.Workloads.arg_sets)));
      let widths = [ 15; 9; 9; 12; 11; 24 ] in
      (* one driver session per workload: the frontend runs once for the
         whole backend sweep and designs are content-cached *)
      let session =
        Driver.create ~entry:w.Workloads.entry w.Workloads.source
      in
      let rows =
        List.filter_map
          (fun (backend, result) ->
            match result with
            | Error _ -> None
            | Ok (design : Design.t) ->
              let backend = Registry.name backend in
              let pipeline =
                match design.Design.pass_trace with
                | [] -> "(source only)"
                | trace ->
                  String.concat "; "
                    (List.map (fun r -> r.Passes.pass_name) trace)
              in
              let r =
                design.Design.run (Design.int_args (List.hd w.Workloads.arg_sets))
              in
              let cycles =
                match r.Design.cycles with Some c -> Tables.i c | None -> "-"
              in
              let period =
                match design.Design.clock_period with
                | Some p -> Tables.f1 p
                | None -> "-"
              in
              let wall =
                match Design.latency_estimate design r with
                | Some t -> Tables.f0 t
                | None -> "-"
              in
              let area =
                match design.Design.area () with
                | Some a -> Tables.f0 a.Area.total_area
                | None -> "-"
              in
              Some [ backend; cycles; period; wall; area; pipeline ])
          (Driver.compile_all ~backends:timing_backends session)
      in
      Tables.table widths
        [ "backend"; "cycles"; "period"; "wall time"; "area (GE)";
          "pipeline" ] rows)
    [ Workloads.gcd; Workloads.fir; Workloads.matmul; Workloads.crc ];
  Printf.printf
    "\nShape to check: transmogrifier minimizes cycles but pays the longest \
     clock;\nhandelc has short cycles-per-assignment but many of them; bachc \
     sits between;\nc2verilog (full ANSI C, unified memory) is an order of \
     magnitude slower;\ncash has no clock and wins wall-time when operator \
     latencies vary.\n"

(* ---------------------------------------------------------------- E4 -- *)

let recoding () =
  Tables.section "E4" "Recoding to meet timing under implicit rules"
    "\"such rules can require recoding to meet timing.  Handel-C may \
     require assignment statements to be fused and loops may need to be \
     unrolled in Transmogrifier C.\"";
  (* Transmogrifier: loop unrolling *)
  Printf.printf "Transmogrifier C: fully unrolling bounded loops\n\n";
  let widths = [ 12; 16; 9; 9; 13; 13 ] in
  let rows =
    List.map
      (fun (w : Workloads.t) ->
        let program = Workloads.parse w in
        let args = List.hd w.Workloads.arg_sets in
        let measure p =
          let design =
            Registry.compile (Registry.get "transmogrifier") p
              ~entry:w.Workloads.entry
          in
          let r = design.Design.run (Design.int_args args) in
          (Option.get r.Design.cycles, Option.get design.Design.clock_period)
        in
        let c0, p0 = measure program in
        let c1, p1 = measure (Loopopt.unroll_all_program program) in
        [ w.Workloads.name; "full unroll"; Tables.i c0; Tables.i c1;
          Tables.f1 p0; Tables.f1 p1 ])
      [ Workloads.fir; Workloads.checksum; Workloads.matmul ]
  in
  Tables.table widths
    [ "kernel"; "recoding"; "cyc before"; "cyc after"; "period before";
      "period after" ]
    rows;
  (* Handel-C: assignment fusion *)
  Printf.printf "\nHandel-C: fusing single-use temporaries\n\n";
  let rows =
    List.map
      (fun (w : Workloads.t) ->
        let program = Workloads.parse w in
        let args = List.hd w.Workloads.arg_sets in
        let measure p =
          let design =
            Registry.compile (Registry.get "handelc") p ~entry:w.Workloads.entry
          in
          let r = design.Design.run (Design.int_args args) in
          (Option.get r.Design.cycles, Option.get design.Design.clock_period)
        in
        let c0, p0 = measure program in
        let c1, p1 = measure (Loopopt.fuse_program program) in
        [ w.Workloads.name; "fuse temps"; Tables.i c0; Tables.i c1;
          Tables.f1 p0; Tables.f1 p1 ])
      [ Workloads.checksum; Workloads.fir; Workloads.fib ]
  in
  Tables.table widths
    [ "kernel"; "recoding"; "cyc before"; "cyc after"; "period before";
      "period after" ]
    rows;
  Printf.printf
    "\nShape to check: unrolling collapses cycles to 1 while the clock \
     period\nexplodes (the whole computation becomes one combinational \
     block); fusion cuts\ncycles where single-use temporaries exist \
     (checksum) and the period grows only\nif the fused chain becomes the \
     new critical path.  fib's swap pattern cannot\nfuse soundly (its \
     temporary is live across another assignment) and fir is\nalready \
     fused — recoding is workload-dependent source surgery.\n"

(* ---------------------------------------------------------------- E5 -- *)

let sum_of_products n =
  (* N-term multiply-accumulate with constant-bounded loop *)
  Printf.sprintf
    {|
    int cs[%d];
    int f(int x) {
      int acc = 0;
      for (int i = 0; i < %d; i = i + 1) {
        acc = acc + cs[i] * (x + i);
      }
      return acc;
    }
    |}
    n n

let cones_area () =
  Tables.section "E5" "Cones: flattening everything into combinational logic"
    "\"Cones flattens each function, including loops and conditionals, into \
     a single two-level network\" — loops are unrolled into silicon, so \
     area grows with trip count";
  let widths = [ 8; 10; 12; 14 ] in
  let rows =
    List.map
      (fun n ->
        let session = Driver.create ~entry:"f" (sum_of_products n) in
        let design = driver_compile session (Registry.get "cones") in
        match design.Design.area () with
        | Some a ->
          [ Tables.i n; Tables.i a.Area.num_nodes;
            Tables.f0 a.Area.total_area; Tables.f1 a.Area.critical_path ]
        | None -> [ Tables.i n; "-"; "-"; "-" ])
      [ 2; 4; 8; 16; 32; 64 ]
  in
  Tables.table widths [ "terms"; "nodes"; "area (GE)"; "critical path" ] rows;
  Printf.printf
    "\nShape to check: area grows linearly with the unrolled trip count \
     (every\niteration becomes hardware), the combinational critical path \
     grows too — the\nscheme cannot share anything across \"iterations\".\n"

(* --------------------------------------------------------------- E5b -- *)

(* The per-language concurrency-safety characterisation, regenerated from
   the static checker itself: each row is a canonical hazard shape, each
   cell the verdict Conc_check reaches under that dialect's rules.  The
   table is computed, never hand-written, so it cannot drift from the
   checker. *)
let conc_safety () =
  Tables.section "E5b"
    "Concurrency hazards under each dialect's rules (from the checker)"
    "Handel-C \"programs are supposed to avoid multiple simultaneous \
     accesses to shared resources\"; SpecC leaves shared variables to the \
     programmer (the silent hazard); Bach C's untimed semantics make any \
     racing access unordered";
  let programs =
    [ ( "clean pipeline",
        {|
        chan int c;
        int f(int n) {
          int hits = 0;
          par {
            { int i = 0; while (i < n) { send(c, i); i = i + 1; } send(c, -1); }
            { int v = 0; v = recv(c); while (v != -1) { hits = hits + v; v = recv(c); } }
          }
          return hits;
        }
        |} );
      ( "write/write race",
        {|
        int g;
        int f(int n) {
          par { { g = n; } { g = n + 1; } }
          return g;
        }
        |} );
      ( "read/write race",
        {|
        int g;
        int f(int n) {
          par { { g = n; } { int x = g; x = x + 1; } }
          return g;
        }
        |} );
      ( "unmatched send",
        {|
        chan int c;
        int f(int n) {
          par { { send(c, n); } { int x = n; x = x + 1; } }
          return n;
        }
        |} );
      ( "channel fan (3 arms)",
        {|
        chan int c;
        int f(int n) {
          par {
            { send(c, n); }
            { int a = recv(c); a = a + 1; }
            { int b = recv(c); b = b + 1; }
          }
          return n;
        }
        |} );
      ( "self rendezvous",
        {|
        chan int c;
        int f(int n) {
          par {
            { send(c, n); int x = recv(c); x = x + 1; }
            { int y = n; y = y + 1; }
          }
          return n;
        }
        |} ) ]
  in
  let dialects =
    [ Dialect.handelc; Dialect.specc; Dialect.bachc; Dialect.cyber ]
  in
  let verdict dialect program =
    let diags = Conc_check.check_program ~dialect program in
    let errors = List.length (Conc_check.errors diags)
    and warnings = List.length (Conc_check.warnings diags) in
    if errors > 0 then Printf.sprintf "ERROR x%d" errors
    else if warnings > 0 then Printf.sprintf "warn x%d" warnings
    else "ok"
  in
  let widths = 21 :: List.map (fun _ -> 11) dialects in
  let header =
    "hazard shape" :: List.map (fun (d : Dialect.t) -> d.Dialect.name) dialects
  in
  let rows =
    List.map
      (fun (name, src) ->
        let program = Typecheck.parse_and_check src in
        name :: List.map (fun d -> verdict d program) dialects)
      programs
  in
  Tables.table widths header rows;
  Printf.printf
    "\nShape to check: the clean pipeline is ok everywhere; Handel-C and \
     Cyber reject\ntwo writers but only warn on a reader beside a writer; \
     Bach C's untimed\nsemantics harden read/write races into errors too; \
     SpecC never errors — the\npaper's silent hazard, every cell a \
     warning.\n"

(* ---------------------------------------------------------------- E6 -- *)

let async_vs_sync () =
  Tables.section "E6" "Asynchronous dataflow (CASH) vs synchronous clocks"
    "\"CASH is unique because it generates asynchronous hardware\" — a \
     clocked design pays the worst-case state delay every cycle; an \
     asynchronous one pays actual operator latencies";
  let widths = [ 12; 12; 14; 14; 13; 13 ] in
  let rows =
    List.map
      (fun (w : Workloads.t) ->
        let session =
          Driver.create ~entry:w.Workloads.entry w.Workloads.source
        in
        let args = List.hd w.Workloads.arg_sets in
        let async = driver_compile session (Registry.get "cash") in
        let ra = async.Design.run (Design.int_args args) in
        let async_time = Option.get ra.Design.time_units in
        let sync_time backend =
          let d = driver_compile session backend in
          let r = d.Design.run (Design.int_args args) in
          float_of_int (Option.get r.Design.cycles)
          *. Option.get d.Design.clock_period
        in
        let tm = sync_time (Registry.get "transmogrifier") in
        let bach = sync_time (Registry.get "bachc") in
        [ w.Workloads.name; Tables.f0 async_time; Tables.f0 tm;
          Tables.f0 bach; Tables.f2 (tm /. async_time);
          Tables.f2 (bach /. async_time) ])
      [ Workloads.gcd; Workloads.fib; Workloads.fir; Workloads.matmul;
        Workloads.crc ]
  in
  Tables.table widths
    [ "kernel"; "async time"; "sync (tmcc)"; "sync (bach)"; "tmcc/async";
      "bach/async" ]
    rows;
  Printf.printf
    "\nShape to check: ratios > 1 (async wins) and largest where per-\
     operation\nlatencies are most varied (division in gcd vs cheap moves).\n"

(* ---------------------------------------------------------------- E7 -- *)

let constraint_kernel k =
  Printf.sprintf
    {|
    int f(int a, int b, int c, int d) {
      int r = 0;
      constrain(1, %d) {
        int p0 = a * b;
        int p1 = c * d;
        int p2 = (a + c) * (b + d);
        int p3 = (a - c) * (b - d);
        int s0 = p0 + p1;
        int s1 = p2 + p3;
        r = s0 ^ s1;
      }
      return r;
    }
    |}
    k

let timing_constraints () =
  Tables.section "E7" "HardwareC: timing constraints drive exploration"
    "\"these three statements must execute in two cycles ... they allow \
     easier design-space exploration\"";
  let widths = [ 14; 10; 30; 10 ] in
  let rows =
    List.map
      (fun k ->
        let program = Typecheck.parse_and_check (constraint_kernel k) in
        match Hardwarec.compile program ~entry:"f" with
        | design, report ->
          let r = design.Design.run (Design.int_args [ 3; 5; 7; 9 ]) in
          [ Printf.sprintf "max %d cycles" k;
            (if List.for_all (fun s -> s.Constrain.satisfied) report.Hardwarec.statuses
             then "met" else "violated");
            report.Hardwarec.chosen_allocation;
            Tables.i (Option.get r.Design.cycles) ]
        | exception Hardwarec.Unsatisfiable _ ->
          [ Printf.sprintf "max %d cycles" k; "unsatisfiable"; "-"; "-" ])
      [ 6; 4; 3; 2; 1 ]
  in
  Tables.table widths [ "constraint"; "status"; "allocation chosen"; "cycles" ] rows;
  Printf.printf
    "\nShape to check: tightening the max-cycle bound forces progressively \
     richer\nallocations (more functional units / deeper chaining) until the \
     constraint\nbecomes unsatisfiable — the designer explores cost/time by \
     moving one number.\n"

(* ---------------------------------------------------------------- E8 -- *)

let bitwidth_kernels =
  [ ( "crc8",
      (Workloads.crc).Workloads.source, "crc8" );
    ( "nibble-mix",
      {|
      int f(int input) {
        int lo = input & 15;
        int hi = (input >> 4) & 15;
        int sum = lo + hi;
        int prod = lo * hi;
        int flag = sum > prod;
        return sum * 256 + prod * 2 + flag;
      }
      |},
      "f" );
    ( "bool-logic",
      {|
      int f(int a, int b) {
        int p = (a > 0) & (b > 0);
        int q = (a < b) | p;
        int r = q ^ (a == b);
        return r;
      }
      |},
      "f" );
    ( "saturate",
      {|
      int f(int x) {
        int v = x & 255;
        int doubled = v * 2;
        int sat = doubled > 255 ? 255 : doubled;
        return sat;
      }
      |},
      "f" ) ]

let bitwidth () =
  Tables.section "E8" "Bit-accurate widths vs C's four sizes"
    "\"Bit vectors are natural in hardware, yet C only supports four \
     sizes\" — datapaths built at declared C widths waste area that width \
     inference recovers";
  let widths = [ 12; 13; 13; 9; 13; 13 ] in
  let rows =
    List.map
      (fun (name, src, entry) ->
        let program = Typecheck.parse_and_check src in
        let lower_only = Passes.pipeline "bitwidth-study" in
        let func = (fst (Passes.run lower_only program ~entry)).Lower.func in
        let r = Bitwidth.infer func in
        let declared_area =
          Bitwidth.datapath_area func ~widths:r.Bitwidth.declared
        and inferred_area =
          Bitwidth.datapath_area func ~widths:r.Bitwidth.widths
        in
        let declared_bits = Bitwidth.register_bits func ~widths:r.Bitwidth.declared
        and inferred_bits = Bitwidth.register_bits func ~widths:r.Bitwidth.widths in
        [ name;
          Tables.f0 declared_area; Tables.f0 inferred_area;
          Printf.sprintf "%.0f%%"
            (100. *. (1. -. (inferred_area /. declared_area)));
          Tables.i declared_bits; Tables.i inferred_bits ])
      bitwidth_kernels
  in
  Tables.table widths
    [ "kernel"; "C-width area"; "inferred"; "saved"; "C reg bits";
      "inferred" ]
    rows;
  Printf.printf
    "\nShape to check: substantial datapath area savings on bit-level code \
     (flags,\nnibbles, 8-bit CRC state) that C's int-everywhere typing hides.\n"

(* ---------------------------------------------------------------- E9 -- *)

let memory_model () =
  Tables.section "E9" "Memory models: many small memories vs one byte soup"
    "\"C's memory model is an undifferentiated array of bytes, yet many \
     small, varied memories are most effective in hardware\" — and pointer \
     support forces the undifferentiated model";
  (* same computation, array style (Bach C: partitioned regions) vs pointer
     style (C2Verilog: unified memory) *)
  let array_style =
    {|
    int va[16];
    int vb[16];
    int run(int seed) {
      for (int i = 0; i < 16; i = i + 1) {
        va[i] = seed + i;
        vb[i] = seed * 2 - i;
      }
      int acc = 0;
      for (int i = 0; i < 16; i = i + 1) { acc = acc + va[i] * vb[i]; }
      return acc;
    }
    |}
  in
  let pointer_style =
    {|
    int va[16];
    int vb[16];
    int run(int seed) {
      int* p = va;
      int* q = vb;
      for (int i = 0; i < 16; i = i + 1) {
        *(p + i) = seed + i;
        *(q + i) = seed * 2 - i;
      }
      int acc = 0;
      for (int i = 0; i < 16; i = i + 1) { acc = acc + p[i] * q[i]; }
      return acc;
    }
    |}
  in
  let widths = [ 26; 10; 9; 12; 12 ] in
  let measure label backend src =
    let program = Typecheck.parse_and_check src in
    let design = Registry.compile backend program ~entry:"run" in
    let r = design.Design.run (Design.int_args [ 5 ]) in
    let wall =
      match Design.latency_estimate design r with
      | Some t -> Tables.f0 t
      | None -> "-"
    in
    [ label; Registry.name backend;
      Tables.i (Option.get r.Design.cycles);
      (match design.Design.clock_period with
      | Some p -> Tables.f1 p
      | None -> "-");
      wall ]
  in
  Tables.table widths
    [ "program style"; "backend"; "cycles"; "clock"; "wall time" ]
    [ measure "arrays (2 small RAMs)" (Registry.get "bachc") array_style;
      measure "arrays (unified RAM)" (Registry.get "c2verilog") array_style;
      measure "pointers (unified RAM)" (Registry.get "c2verilog") pointer_style ];
  (* points-to analysis: when is banking recoverable? *)
  let r = Pointer.analyze (Typecheck.parse_and_check pointer_style) in
  Printf.printf
    "\nPoints-to: run::p -> {%s}, run::q -> {%s}; fully partitionable = %b\n"
    (String.concat "," (Pointer.points_to r "run::p"))
    (String.concat "," (Pointer.points_to r "run::q"))
    (Pointer.fully_partitionable r);
  Printf.printf
    "\nShape to check: the same kernel is far slower through the unified \
     memory\n(every access serialized through one port + processor-style \
     sequencing) than\nwith per-array memories; the pointer version is \
     recoverable here only because\nAndersen analysis proves p and q \
     disjoint.\n"

let run_all () =
  table1 ();
  ilp_limits ();
  pipelining ();
  timing_schemes ();
  recoding ();
  cones_area ();
  conc_safety ();
  async_vs_sync ();
  timing_constraints ();
  bitwidth ();
  memory_model ()
