(* chlsc: the CHLS compiler driver.

     chlsc table1                          print the paper's Table 1
     chlsc check FILE                      which dialects accept this program?
     chlsc run FILE -e main -a 1,2         software oracle (reference interp)
     chlsc compile FILE -b bachc -e main   synthesize; optional --run/--verilog
     chlsc fuzz --seed 1 -n 50             differential dialect-matrix fuzzing

   See README.md for the tour. *)

open Cmdliner

let read_file path =
  In_channel.with_open_text path In_channel.input_all

(* The file's program through the driver's frontend, which types every
   lexer, parser and typechecker error: on one, print it located and
   exit 1. *)
let program_of_file file =
  match Driver.program (Driver.create (read_file file)) with
  | Ok program -> program
  | Error e ->
    prerr_endline (Driver.render_error ~file e);
    exit 1

(* Run [f], turning a located lowering error into a file:line:col
   diagnostic instead of an uncaught-exception crash. *)
let or_located_error file f =
  match f () with
  | v -> v
  | exception Lower.Error (msg, loc) ->
    if loc = Ast.no_loc then Printf.eprintf "%s: error: %s\n" file msg
    else
      Printf.eprintf "%s:%d:%d: error: %s\n" file loc.Ast.line loc.Ast.col msg;
    exit 1

let parse_args_list s =
  if String.trim s = "" then []
  else List.map int_of_string (String.split_on_char ',' (String.trim s))

(* A name-resolution failure is a usage error: message, exit 1. *)
let or_exit = function
  | Ok v -> v
  | Error msg ->
    prerr_endline msg;
    exit 1

(* --- common arguments --- *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
         ~doc:"C-like source file")

let entry_arg =
  Arg.(value & opt string "main" & info [ "e"; "entry" ] ~docv:"NAME"
         ~doc:"Entry function (default: main)")

(* Flags that several commands take are declared once; each command
   gives its own default and doc. *)
let args_info ~doc = Arg.info [ "a"; "args" ] ~docv:"N,N,..." ~doc
let backends_info ~doc = Arg.info [ "backends" ] ~docv:"B,B,..." ~doc
let domains_info ~doc = Arg.info [ "domains" ] ~docv:"N" ~doc

let args_arg =
  Arg.(value & opt (some string) None
       & args_info ~doc:"Comma-separated integer arguments")

(* --- subcommands --- *)

let table1_cmd =
  let doc = "Print the paper's Table 1 (the language catalog)" in
  Cmd.v (Cmd.info "table1" ~doc)
    Term.(const (fun () -> print_string (Dialect.render_table1 ())) $ const ())

let metrics_json_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics-json" ] ~docv:"OUT.json"
           ~doc:
             "Write a machine-readable run report (schema chls.metrics/3): \
              design facts, the per-pass compile trace, the span trace tree, \
              simulator counters and the run outcome, rendered \
              deterministically")

let trace_json_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-json" ] ~docv:"OUT.json"
           ~doc:
             "Write span traces as Chrome trace_event JSON (complete X \
              events) — load it in about://tracing or Perfetto.  \
              $(b,compile) writes its own trace, and on failure the file \
              also carries the flight-recorder dump; $(b,serve) collects \
              every request's span tree (pid = worker index, tid = domain \
              id) and writes the file at shutdown")

(* --- the persistent design cache (lib/core/cache.ml) --- *)

let cache_dir_info =
  Arg.info [ "cache-dir" ] ~docv:"DIR"
    ~doc:
      "The persistent on-disk design cache under $(docv) (created if \
       missing).  Compiled designs survive process restarts and are shared \
       with co-operating workers; corrupt or version-skewed entries \
       silently degrade to a recompile"

let cache_dir_arg = Arg.(value & opt (some string) None & cache_dir_info)

let cache_max_bytes_arg =
  Arg.(value & opt (some int) None
       & info [ "cache-max-bytes" ] ~docv:"N"
           ~doc:
             "Byte budget for the on-disk cache (default 256 MiB); \
              least-recently-used entries are evicted past it")

let attach_cache cache_dir cache_max_bytes =
  match cache_dir with
  | None -> ()
  | Some dir -> (
    match Driver.attach_disk_cache ?max_bytes:cache_max_bytes ~dir () with
    | Ok _ -> ()
    | Error msg ->
      Printf.eprintf "cannot open cache %s: %s\n" dir msg;
      exit 1)

(* chlsc check --races: the static concurrency checker (lib/analysis).
   Diagnostics print as file:line:col with the dialect's severity; exit
   status is 0 when the program is race-free under the chosen dialect and
   1 when any hard error is reported. *)
let run_races file dialect_name metrics_json =
  let dialect = or_exit (Registry.resolve_dialect dialect_name) in
  let program = program_of_file file in
  let diags = Conc_check.check_program ~dialect program in
  List.iter (fun d -> print_endline (Conc_check.render ~file d)) diags;
  let errors = Conc_check.errors diags
  and warnings = Conc_check.warnings diags in
  Printf.printf "%s: %d error(s), %d warning(s) under %s rules\n"
    (if errors = [] then "race-free" else "concurrency-unsafe")
    (List.length errors) (List.length warnings) dialect.Dialect.name;
  (match metrics_json with
  | None -> ()
  | Some path ->
    let m = Metrics.create () in
    Metrics.set_string m "schema" "chls.metrics/3";
    Metrics.set_string m "check.dialect" dialect.Dialect.name;
    List.iter
      (fun (k, n) -> Metrics.set_int m ("check." ^ k) n)
      (Conc_check.metric_counters diags);
    Metrics.set_int m "check.errors" (List.length errors);
    Metrics.set_int m "check.warnings" (List.length warnings);
    Metrics.write_file m path;
    Printf.printf "wrote %s\n" path);
  if errors <> [] then exit 1

let check_cmd =
  let doc =
    "Report which surveyed dialects accept the program; with --races, run \
     the static concurrency checker instead"
  in
  let races_flag =
    Arg.(value & flag
         & info [ "races" ]
             ~doc:
               "Run the par-block race detector and channel lint: report \
                write/write and read/write conflicts between par arms and \
                rendezvous protocol hazards with source locations, under \
                the severity rules of --dialect.  Exit 0 when race-free, \
                1 on any hard error")
  in
  let dialect_arg =
    Arg.(value & opt string "handelc"
         & info [ "d"; "dialect" ] ~docv:"DIALECT"
             ~doc:
               "Dialect whose concurrency rules judge the program \
                (handel-c | specc | \"bach c\" | ...; default handel-c)")
  in
  let run file races dialect metrics_json =
    if races then run_races file dialect metrics_json
    else begin
      let program = program_of_file file in
      List.iter
        (fun (d : Dialect.t) ->
          match Dialect.check d program with
          | [] -> Printf.printf "%-18s accepts\n" d.Dialect.name
          | { Dialect.rule; where; vloc } :: _ ->
            if vloc = Ast.no_loc then
              Printf.printf "%-18s rejects: %s (in %s)\n" d.Dialect.name rule
                where
            else
              Printf.printf "%-18s rejects: %s (in %s, at %d:%d)\n"
                d.Dialect.name rule where vloc.Ast.line vloc.Ast.col)
        Dialect.table1
    end
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(const run $ file_arg $ races_flag $ dialect_arg $ metrics_json_arg)

let run_cmd =
  let doc = "Execute with the software semantics (reference interpreter)" in
  let run file entry args =
    let session = Driver.create ~entry (read_file file) in
    let args = parse_args_list (Option.value args ~default:"") in
    match Driver.reference session ~args with
    | Ok result ->
      Printf.printf "%s(%s) = %d\n" entry
        (String.concat "," (List.map string_of_int args))
        result
    | Error e ->
      prerr_endline (Driver.render_error ~file e);
      exit 1
  in
  Cmd.v (Cmd.info "run" ~doc) Term.(const run $ file_arg $ entry_arg $ args_arg)

let backend_arg =
  let parse s = Result.map_error (fun msg -> `Msg msg) (Registry.resolve s) in
  let print fmt b = Format.pp_print_string fmt (Registry.name b) in
  Arg.(value
       & opt (conv (parse, print)) (Registry.get "bachc")
       & info [ "b"; "backend" ] ~docv:"BACKEND"
           ~doc:("Synthesis scheme: " ^ Registry.catalog ()))

let verilog_arg =
  Arg.(value & opt (some string) None & info [ "verilog" ] ~docv:"OUT.v"
         ~doc:"Write generated Verilog to this file")

let area_flag =
  Arg.(value & flag & info [ "area" ] ~doc:"Print the area/timing report")

let stats_flag =
  Arg.(value & flag
       & info [ "stats" ]
           ~doc:
             "With --args: print netlist-evaluator performance counters \
              (nodes evaluated, events propagated, cycles, wall time) for \
              the run, comparing event-driven settling against the \
              full-sweep oracle")

let trace_passes_flag =
  Arg.(value & flag
       & info [ "trace-passes" ]
           ~doc:
             "Print the backend's declared pipeline and a per-pass table: \
              wall time, IR-size deltas (blocks, instructions, registers) \
              and vectors verified")

let dump_ir_arg =
  Arg.(value & opt_all string []
       & info [ "dump-ir" ] ~docv:"PASS"
           ~doc:
             "Dump the IR after the named pass (repeatable; \"lower\" names \
              the lowering stage itself)")

let verify_passes_flag =
  Arg.(value & flag
       & info [ "verify-passes" ]
           ~doc:
             "Differentially verify every semantics-preserving pass against \
              the CIR interpreter on the run's argument vectors (compile: \
              the --args vector, required; fuzz: the fuzz vectors); a pass \
              that changes observable behaviour fails the run (exit 2)")

let vcd_arg =
  Arg.(value & opt (some string) None
       & info [ "vcd" ] ~docv:"OUT.vcd"
           ~doc:
             "With --args: write the behavioural simulation as a VCD \
              waveform (FSMD backends trace the FSM state, every register \
              and memory writes per cycle; cash traces token firings at \
              their completion times; cones traces netlist value changes)")

let vcd_netlist_arg =
  Arg.(value & opt (some string) None
       & info [ "vcd-netlist" ] ~docv:"OUT.vcd"
           ~doc:
             "With --args: drive the elaborated netlist through the \
              event-driven evaluator and write every signal change as a \
              VCD waveform (the event worklist is the change list)")

let profile_flag =
  Arg.(value & flag
       & info [ "profile" ]
           ~doc:
             "With --args: print execution histograms — FSM state visit \
              counts (summing to the cycle count) and the hottest netlist \
              nodes by evaluation count")

let sim_arg =
  let engine =
    Arg.enum
      [ ("compiled", Design.Compiled);
        ("event", Design.Event_driven) ]
  in
  Arg.(value & opt engine Design.Compiled
       & info [ "sim" ] ~docv:"ENGINE"
           ~doc:
             "Simulation engine for the behavioural run: $(b,compiled) \
              (levelized closure evaluator, the default) or $(b,event) \
              (event-driven interpreter; SystemC's kernel for SystemC).  \
              CASH and the statement machine (Handel-C and every \
              concurrent program) have a single simulator and ignore the \
              selection; designs wider than 62 bits fall back to the \
              interpreter.")

let verify_sim_flag =
  Arg.(value & flag
       & info [ "verify-sim" ]
           ~doc:
             "Run the compiled engine and the event-driven oracle on the \
              same vector (compile: the --args vector; fuzz: every design \
              that agrees with the reference) and fail (exit 2) unless \
              result, globals, memories, cycle count and VCD change stream \
              are bit-identical.  A design no compiled engine ran has \
              nothing to cross-check: compile says it does not apply")

(* The netlist view's inputs for an integer argument vector, each at its
   input's width; exits 1 when the counts differ. *)
let netlist_inputs ~flag nl args =
  let ins = Netlist.inputs nl in
  if List.length ins <> List.length args then begin
    Printf.eprintf "%snetlist takes %d input(s), got %d argument(s)\n" flag
      (List.length ins) (List.length args);
    exit 1
  end;
  List.map2
    (fun (name, s) v -> (name, Bitvec.of_int ~width:(Netlist.width nl s) v))
    ins args

(* Drive the design's netlist view through the evaluator under both settling
   strategies, and through the compiled engine when it holds the netlist,
   and print the activity counters side by side. *)
let print_sim_stats (design : Design.t) args =
  match design.Design.netlist () with
  | None ->
    print_endline "simulator stats: this backend has no netlist view"
  | Some nl ->
    let inputs = netlist_inputs ~flag:"--stats: " nl args in
    let describe label (st : Neteval.stats) =
      Printf.printf
        "  %-13s %d cycles, %d node evals (%.1f/settle), %d events, %.2f ms\n"
        label st.Neteval.cycles st.Neteval.nodes_evaluated
        (float_of_int st.Neteval.nodes_evaluated
        /. float_of_int (max 1 st.Neteval.settles))
        st.Neteval.events
        (st.Neteval.wall_time *. 1000.)
    in
    Printf.printf "netlist evaluator stats (%d nodes):\n" (Netlist.length nl);
    if not (List.mem_assoc "done" (Netlist.outputs nl)) then begin
      (* combinational netlist: one settle, identical under both
         strategies *)
      let _, st = Neteval.eval_combinational nl ~inputs in
      describe "combinational" st
    end
    else begin
      let compiled =
        if Netcomp.compilable nl then
          let c = Netcomp.create nl in
          Some
            (Result.map
               (fun (out, cycles) -> (out, cycles, Netcomp.stats c))
               (Netcomp.drive c ~inputs ~done_name:"done"
                  ~max_cycles:Rtlsim.max_cycles))
        else None
      in
      let run strategy =
        Neteval.run_until_done ~strategy nl ~inputs ~done_name:"done"
          ~max_cycles:Rtlsim.max_cycles
      in
      let same (out, cycles, _) (out', cycles', _) =
        cycles = cycles'
        && List.for_all2
             (fun (n1, v1) (n2, v2) -> n1 = n2 && Bitvec.equal v1 v2)
             out out'
      in
      match (compiled, run Neteval.Event_driven, run Neteval.Full_sweep) with
      | (None | Some (Ok _)), Ok ((_, _, ev) as e), Ok ((_, _, fs) as f) ->
        let compiled =
          match compiled with Some (Ok c) -> Some c | _ -> None
        in
        (match compiled with
        | Some (_, _, cs) -> describe "compiled:" cs
        | None ->
          Printf.printf "  %-13s does not apply (signals over 62 bits)\n"
            "compiled:");
        describe "event-driven:" ev;
        describe "full-sweep:" fs;
        let agree =
          same e f && Option.fold ~none:true ~some:(same e) compiled
        in
        Printf.printf
          "  node-eval reduction: %.1fx; %sbit-exact across engines: %s\n"
          (float_of_int fs.Neteval.nodes_evaluated
          /. float_of_int (max 1 ev.Neteval.nodes_evaluated))
          (match compiled with
          | Some (_, _, cs) ->
            Printf.sprintf "compiled speedup: %.1fx; "
              (ev.Neteval.wall_time /. Float.max 1e-9 cs.Neteval.wall_time)
          | None -> "")
          (if agree then "yes" else "NO — evaluator bug");
        if not agree then exit 2
      | Some (Error `Timeout), _, _ | _, Error `Timeout, _
      | _, _, Error `Timeout ->
        print_endline "  (timed out)"
    end

(* Drive the design's netlist view through the event-driven evaluator with
   an observation probe installed: the VCD behind --vcd-netlist, the
   hot-node histogram behind --profile and the netlist.* counters of the
   metrics report all come from this one instrumented run. *)
let observe_netlist (design : Design.t) args ~vcd_path ~profile ~metrics =
  match design.Design.netlist () with
  | None ->
    if vcd_path <> None then begin
      Printf.eprintf "--vcd-netlist: this backend has no netlist view\n";
      exit 1
    end
  | Some nl ->
    let inputs = netlist_inputs ~flag:"" nl args in
    let writer = Option.map (fun _ -> Vcd.create ()) vcd_path in
    let t = Neteval.create nl in
    Option.iter
      (fun w -> Neteval.set_probe t (Trace.neteval_probe w nl))
      writer;
    (if List.mem_assoc "done" (Netlist.outputs nl) then begin
       match
         Neteval.drive t ~inputs ~done_name:"done"
           ~max_cycles:Rtlsim.max_cycles
       with
       | Ok _ -> ()
       | Error `Timeout -> print_endline "netlist run: timed out"
     end
     else Neteval.settle t ~inputs);
    let st = Neteval.stats t in
    Metrics.set_int metrics "netlist.nodes" (Netlist.length nl);
    Metrics.set_int metrics "netlist.cycles" st.Neteval.cycles;
    Metrics.set_int metrics "netlist.settles" st.Neteval.settles;
    Metrics.set_int metrics "netlist.nodes_evaluated"
      st.Neteval.nodes_evaluated;
    Metrics.set_int metrics "netlist.events" st.Neteval.events;
    if profile then begin
      let ranked =
        List.sort
          (fun (_, a) (_, b) -> compare (b : int) a)
          (Array.to_list (Array.mapi (fun s n -> (s, n)) (Neteval.eval_counts t)))
      in
      print_endline "profile: hottest netlist nodes (evaluations)";
      List.iteri
        (fun i (s, n) ->
          if i < 10 && n > 0 then Printf.printf "  n%-6d %d\n" s n)
        ranked
    end;
    match (vcd_path, writer) with
    | Some path, Some w ->
      Vcd.write_file w path;
      Printf.printf "wrote %s (%d vars)\n" path (Vcd.num_vars w)
    | _ -> ()

(* The FSM state visit histogram of the behavioural run; states_visited
   sums to the cycle count, so the histogram is a complete account of
   where the cycles went. *)
let print_state_profile (r : Design.run_result) =
  match Metrics.find r.Design.metrics "sim.states_visited" with
  | Some (Metrics.List l) ->
    let counts =
      List.mapi
        (fun i j -> match j with Metrics.Int n -> (i, n) | _ -> (i, 0))
        l
    in
    let total = List.fold_left (fun acc (_, n) -> acc + n) 0 counts in
    print_endline "profile: FSM state visit counts";
    List.iter
      (fun (i, n) -> if n > 0 then Printf.printf "  state %-4d %d\n" i n)
      (List.sort (fun (_, a) (_, b) -> compare (b : int) a) counts);
    Printf.printf "  total %d cycles\n" total
  | _ -> ()

let compile_cmd =
  let doc = "Synthesize the program with a surveyed scheme" in
  let run file entry backend args verilog area stats trace_passes dump_ir
      verify_passes vcd vcd_netlist profile metrics_json trace_json sim
      verify_sim cache_dir cache_max_bytes =
    attach_cache cache_dir cache_max_bytes;
    let source = read_file file in
    let verify =
      if not verify_passes then []
      else
        match args with
        | Some a -> [ parse_args_list a ]
        | None ->
          Printf.eprintf
            "--verify-passes needs an argument vector: pass --args as well\n";
          exit 1
    in
    (* per-compile configuration — no global pass options; the config's
       digest keys the design cache so later sweeps see distinct points *)
    let config =
      { Config.default with Config.verify; dump_after = dump_ir; sim }
    in
    (* the whole invocation is one trace: frontend, dialect check, passes,
       backend, simulation and oracle become spans under this root *)
    let tr, tctx = Span.start ~kind:"compile" () in
    Span.add_attr tctx "file" (Metrics.String file);
    Span.add_attr tctx "entry" (Metrics.String entry);
    let write_trace ?(failed = false) () =
      match trace_json with
      | None -> ()
      | Some path ->
        Span.finish tr;
        let sink = Span.Chrome.create () in
        Span.Chrome.add sink tr;
        let extra =
          if failed then [ ("flight_recorder", Span.Flight.dump ()) ]
          else []
        in
        Span.Chrome.write_file ~extra sink path;
        Printf.printf "wrote %s (%d trace event(s))\n" path
          (Span.Chrome.events sink)
    in
    (* the driver owns parse-once + the content-hashed design cache and
       turns every rejection into a typed, located diagnostic *)
    let session = Driver.create ~entry source in
    let design =
      match Driver.compile ~ctx:tctx ~config session backend with
      | Ok design -> design
      | Error (Driver.Verification_error { message; _ }) ->
        write_trace ~failed:true ();
        Printf.eprintf "PASS VERIFICATION FAILED: %s\n" message;
        exit 2
      | Error e ->
        write_trace ~failed:true ();
        Printf.eprintf "%s\n" (Driver.render_error ~file e);
        exit 1
    in
    let m = Metrics.create () in
    Metrics.set_string m "schema" "chls.metrics/3";
    Metrics.set_string m "design.name" entry;
    Metrics.set_string m "design.backend" design.Design.backend;
    List.iter
      (fun (k, v) -> Metrics.set_string m ("design.stats." ^ k) v)
      design.Design.stats;
    (match design.Design.clock_period with
    | Some p -> Metrics.set_fixed m "design.clock_period" ~decimals:1 p
    | None -> ());
    Metrics.set m "passes" (Trace.json_of_pass_trace design.Design.pass_trace);
    let write_metrics () =
      match metrics_json with
      | Some path ->
        (* fold in the driver's timings, cache counters and the span
           trace as they stand at write time *)
        Metrics.merge ~into:m (Driver.metrics session);
        List.iter
          (fun (k, v) -> Metrics.set_int m k v)
          (Driver.cache_metrics ());
        List.iter
          (fun (k, v) -> Metrics.set_fixed m k ~decimals:1 v)
          (Driver.cache_hit_rates ());
        Span.finish tr;
        Metrics.set m "spans" (Span.to_json tr);
        Metrics.write_file m path;
        Printf.printf "wrote %s\n" path
      | None -> ()
    in
    Printf.printf "backend: %s\n" design.Design.backend;
    if trace_passes then begin
      (match Registry.pipeline backend with
      | Some pl ->
        Printf.printf "pipeline %s: %s\n" pl.Passes.pl_name
          (Passes.describe pl)
      | None -> ());
      if verify_passes then
        print_endline
          "per-pass differential verification vs Cir_interp: ok (bit-exact)";
      print_string (Passes.render_table design.Design.pass_trace)
    end;
    List.iter
      (fun (k, v) -> Printf.printf "%s: %s\n" k v)
      design.Design.stats;
    (match design.Design.clock_period with
    | Some p -> Printf.printf "estimated clock period: %.1f\n" p
    | None -> print_endline "no clock (combinational or asynchronous)");
    (match args with
    | None ->
      List.iter
        (fun (flag, present) ->
          if present then
            Printf.printf "%s needs a run: pass --args as well\n" flag)
        [ ("--stats", stats);
          ("--vcd", vcd <> None);
          ("--vcd-netlist", vcd_netlist <> None);
          ("--profile", profile);
          ("--verify-sim", verify_sim) ]
    | Some args ->
      let args = parse_args_list args in
      let writer = Option.map (fun _ -> Vcd.create ()) vcd in
      let finish_vcd () =
        match (vcd, writer) with
        | Some path, Some w ->
          Vcd.write_file w path;
          Printf.printf "wrote %s (%d vars)\n" path (Vcd.num_vars w)
        | _ -> ()
      in
      Metrics.set_string m "run.engine" (Design.engine_name sim);
      let v =
        match Driver.check ~ctx:tctx ?vcd:writer ~sim session design ~args with
        | Ok v -> v
        | Error e ->
          write_trace ~failed:true ();
          prerr_endline (Driver.render_error ~file e);
          exit 1
      in
      (* the verdict as the daemon answers it; a stop is a partial
         outcome that reports how far the run got *)
      List.iter
        (fun (k, j) -> Metrics.set m ("run." ^ k) j)
        (Driver.run_members v);
      (match v.Driver.run with
      | Error stop ->
        finish_vcd ();
        write_metrics ();
        write_trace ~failed:true ();
        prerr_endline (Design.render_stop stop);
        exit 3
      | Ok r ->
        Metrics.merge ~into:m ~prefix:"run" r.Design.metrics;
        finish_vcd ();
        Printf.printf "%s(%s) = %s%s\n" entry
          (String.concat "," (List.map string_of_int args))
          (match Driver.observed v with
          | Some n -> string_of_int n
          | None -> "void")
          (match (r.Design.cycles, r.Design.time_units) with
          | Some c, _ -> Printf.sprintf " in %d cycles" c
          | None, Some t -> Printf.sprintf " in %.0f time units" t
          | None, None -> "");
        (match v.Driver.oracle with
        | Some (Error e) ->
          write_trace ~failed:true ();
          prerr_endline (Driver.render_error ~file e);
          exit 1
        | Some (Ok expected) when not v.Driver.agrees ->
          write_metrics ();
          write_trace ~failed:true ();
          Printf.eprintf "MISMATCH vs software semantics (expected %d)\n"
            expected;
          exit 2
        | Some (Ok _) | None -> ());
        if verify_sim then begin
          match Driver.engine_mismatches design ~args with
          | None ->
            print_endline
              "verify-sim: does not apply (no compiled engine ran this \
               design)"
          | Some [] ->
            Metrics.set_bool m "run.sim_verified" true;
            print_endline
              "verify-sim: compiled == event-driven (result, globals, \
               memories, cycles, vcd)"
          | Some mismatches ->
            Metrics.set_bool m "run.sim_verified" false;
            write_metrics ();
            Printf.eprintf
              "verify-sim: DIVERGENCE between compiled and event-driven \
               engines (%s)\n"
              (String.concat ", " mismatches);
            exit 2
        end;
        if profile then print_state_profile r;
        if stats then begin
          List.iter
            (fun (k, v) -> Printf.printf "sim %s: %s\n" k v)
            (Metrics.render_flat r.Design.metrics);
          print_sim_stats design args
        end);
      if vcd_netlist <> None || profile then
        observe_netlist design args ~vcd_path:vcd_netlist ~profile ~metrics:m);
    write_metrics ();
    write_trace ();
    if area then begin
      match design.Design.area () with
      | Some a -> Format.printf "%a\n" Area.pp_report a
      | None -> print_endline "no structural area view for this backend"
    end;
    match verilog with
    | None -> ()
    | Some path -> (
      match design.Design.verilog () with
      | Some v ->
        Out_channel.with_open_text path (fun oc -> output_string oc v);
        Printf.printf "wrote %s (%d bytes)\n" path (String.length v)
      | None ->
        Printf.eprintf "this backend has no Verilog view\n";
        exit 1)
  in
  Cmd.v (Cmd.info "compile" ~doc)
    Term.(const run $ file_arg $ entry_arg $ backend_arg $ args_arg
          $ verilog_arg $ area_flag $ stats_flag $ trace_passes_flag
          $ dump_ir_arg $ verify_passes_flag $ vcd_arg $ vcd_netlist_arg
          $ profile_flag $ metrics_json_arg $ trace_json_arg $ sim_arg
          $ verify_sim_flag $ cache_dir_arg $ cache_max_bytes_arg)

(* --- chlsc compare: one source through every registered backend --- *)

(* Fixed-width table, widths computed from the data (no truncation); the
   last column is left unpadded. *)
let print_table header rows =
  let widths =
    List.fold_left
      (fun ws row -> List.map2 (fun w c -> max w (String.length c)) ws row)
      (List.map String.length header)
      rows
  in
  let emit row =
    let n = List.length row in
    List.iteri
      (fun i (w, c) ->
        if i = n - 1 then print_string c
        else print_string (c ^ String.make (w - String.length c + 2) ' '))
      (List.combine widths row);
    print_newline ()
  in
  emit header;
  print_endline
    (String.make
       (List.fold_left ( + ) 0 widths + (2 * (List.length widths - 1)))
       '-');
  List.iter emit rows

let compare_cmd =
  let doc =
    "Compile the program through every registered backend in one \
     invocation (the frontend runs once, designs are content-cached), run \
     the shared argument vectors and print the cross-backend table"
  in
  let args_all =
    Arg.(value & opt_all string []
         & args_info
             ~doc:
               "Shared argument vector (repeatable: every accepting \
                backend runs each vector, checked against the software \
                oracle)")
  in
  let backends_arg =
    Arg.(value & opt (some string) None
         & backends_info
             ~doc:
               "Restrict the comparison to these comma-separated backends \
                (default: all registered)")
  in
  let run file entry vec_strings backends_filter metrics_json cache_dir
      cache_max_bytes =
    attach_cache cache_dir cache_max_bytes;
    let source = read_file file in
    let session = Driver.create ~entry source in
    let backends =
      match backends_filter with
      | None -> Registry.all ()
      | Some s ->
        or_exit (Registry.resolve_backends (String.split_on_char ',' s))
    in
    let vectors = List.map parse_args_list vec_strings in
    let table =
      match Driver.compare ~backends session ~vectors with
      | Ok table -> table
      | Error e ->
        prerr_endline (Driver.render_error ~file e);
        exit 1
    in
    let m = Metrics.create () in
    Metrics.set_string m "schema" "chls.metrics/3";
    Metrics.set_string m "compare.file" file;
    Metrics.set_string m "compare.entry" entry;
    Metrics.set_int m "compare.vectors" (List.length vectors);
    let compiled = ref 0 in
    let join cells = if cells = [] then "-" else String.concat "," cells in
    let rows =
      List.map
        (fun (b, compared) ->
          let name = Registry.name b in
          let key k = Printf.sprintf "compare.backends.%s.%s" name k in
          List.iter
            (fun (k, j) -> Metrics.set m (key k) j)
            (Driver.compare_row compared);
          match compared with
          | Error e ->
            let short =
              match e with
              | Driver.No_c_frontend _ -> "no C frontend"
              | Driver.Dialect_reject
                  { violations = { Dialect.rule; _ } :: _; _ } ->
                "rejects: " ^ rule
              | e -> Driver.error_kind e
            in
            [ name; short; "-"; "-"; "-"; "-"; "-" ]
          | Ok (design, verdicts) ->
            incr compiled;
            (* one vector's result, cycles and wall cells: a stopped run
               names its reason in the first two, "t/o" for a timeout *)
            let cells v =
              match v.Driver.run with
              | Error { Design.reason = Design.Timeout; _ } ->
                ("t/o", Some "t/o", None)
              | Error { Design.reason; _ } ->
                let r = Design.stop_reason_name reason in
                (r, Some r, None)
              | Ok r ->
                ( Option.fold ~none:"void" ~some:string_of_int
                    (Driver.observed v),
                  Option.map string_of_int r.Design.cycles,
                  Option.map (Printf.sprintf "%.0f")
                    (Design.latency_estimate design r) )
            in
            let cells = List.map cells verdicts in
            (match verdicts with
            | { Driver.run = Ok r; _ } :: _ ->
              (match r.Design.cycles with
              | Some c -> Metrics.set_int m (key "cycles") c
              | None -> ());
              (match Design.latency_estimate design r with
              | Some t -> Metrics.set_fixed m (key "wall_time") ~decimals:1 t
              | None -> ())
            | _ -> ());
            let area_cell =
              match design.Design.area () with
              | Some a ->
                Metrics.set_fixed m (key "area") ~decimals:0
                  a.Area.total_area;
                Printf.sprintf "%.0f" a.Area.total_area
              | None -> "-"
            in
            (match design.Design.clock_period with
            | Some p ->
              Metrics.set_fixed m (key "clock_period") ~decimals:1 p
            | None -> ());
            [ name;
              "ok";
              join (List.map (fun (r, _, _) -> r) cells);
              join (List.filter_map (fun (_, c, _) -> c) cells);
              join (List.filter_map (fun (_, _, w) -> w) cells);
              area_cell;
              (if vectors = [] then "-"
               else if Driver.agree verdicts then "agree"
               else "MISMATCH") ])
        table
    in
    Printf.printf "%s -e %s%s\n\n" file entry
      (match vectors with
      | [] -> " (no --args: compile only)"
      | vs ->
        Printf.sprintf ", args = %s"
          (String.concat " | "
             (List.map
                (fun v -> String.concat "," (List.map string_of_int v))
                vs)));
    print_table
      [ "backend"; "status"; "result"; "cycles"; "wall"; "area"; "oracle" ]
      rows;
    Metrics.merge ~into:m (Driver.metrics session);
    List.iter (fun (k, v) -> Metrics.set_int m k v) (Driver.cache_metrics ());
    let hits =
      match Metrics.find m "driver.cache.hits" with
      | Some (Metrics.Int n) -> n
      | _ -> 0
    in
    Printf.printf
      "\n%d backend(s): %d compiled, %d rejected; frontend parsed once \
       (%d cache hit(s))\n"
      (List.length rows)
      !compiled
      (List.length rows - !compiled)
      hits;
    (match metrics_json with
    | Some path ->
      Metrics.write_file m path;
      Printf.printf "wrote %s\n" path
    | None -> ());
    if Driver.mismatch table then begin
      Printf.eprintf "MISMATCH vs software semantics (see table)\n";
      exit 2
    end
  in
  Cmd.v (Cmd.info "compare" ~doc)
    Term.(const run $ file_arg $ entry_arg $ args_all $ backends_arg
          $ metrics_json_arg $ cache_dir_arg $ cache_max_bytes_arg)

(* --- chlsc serve / client: the synthesis daemon (lib/core/serve.ml) --- *)

let socket_arg =
  Arg.(required & opt (some string) None
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix-domain socket path the daemon listens on")

let serve_cmd =
  let doc =
    "Run the synthesis service: a daemon on a Unix-domain socket speaking \
     length-prefixed JSON (compile / compare / check / stats / shutdown), \
     dispatching onto an OCaml Domain pool with the compiled-design cache \
     shared across workers"
  in
  let domains_arg =
    Arg.(value & opt (some int) None
         & domains_info
             ~doc:
               "Worker domains (default: the runtime's recommended count)")
  in
  let queue_arg =
    Arg.(value & opt (some int) None
         & info [ "queue" ] ~docv:"N"
             ~doc:
               "Job-queue capacity (default 4 x domains); submissions \
                block past it, which is the daemon's backpressure")
  in
  let run socket domains queue cache_dir cache_max_bytes trace_json =
    (* Runs no longer force minor collections, and those collections had
       also paced the major collector.  At OCaml 5's default
       space_overhead of 120 the daemon's peak RSS on perfbench's
       warm-repeat reads 10-15% above what it did, near that metric's
       15% bound; at 100 it reads within 1%, for about 8% more set-up
       time on verify-batch. *)
    Gc.set { (Gc.get ()) with Gc.space_overhead = 100 };
    attach_cache cache_dir cache_max_bytes;
    match
      Serve.run ?domains ?queue_capacity:queue ?trace_json
        ~log:prerr_endline ~socket ()
    with
    | Ok () -> ()
    | Error msg ->
      Printf.eprintf "serve: %s\n" msg;
      exit 1
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const run $ socket_arg $ domains_arg $ queue_arg $ cache_dir_arg
          $ cache_max_bytes_arg $ trace_json_arg)

let client_cmd =
  let doc =
    "Send raw-JSON requests to a running $(b,chlsc serve) daemon and print \
     each JSON response on its own line (requests come from the command \
     line, or stdin one-per-line when none are given)"
  in
  let requests_arg =
    Arg.(value & pos_all string []
         & info [] ~docv:"JSON"
             ~doc:"Request objects, e.g. '{\"op\":\"stats\"}'")
  in
  let timeout_arg =
    Arg.(value & opt (some int) None
         & info [ "timeout-ms" ] ~docv:"MS"
             ~doc:
               "Bound every send and receive on the connection; a wedged \
                daemon then fails the call with a timed-out error instead \
                of hanging")
  in
  (* A failed request still prints its raw JSON on stdout (scripts parse
     that), but the typed error kind and the trace id — the handle into
     the daemon's flight recorder and --trace-json timeline — go to
     stderr where a human will see them. *)
  let report_server_error response =
    match Metrics.parse response with
    | Error _ -> ()
    | Ok json -> (
      match Metrics.member "ok" json with
      | Some (Metrics.Bool false) ->
        let str m j =
          match Metrics.member m j with
          | Some (Metrics.String s) -> s
          | _ -> "?"
        in
        let kind, message =
          match Metrics.member "error" json with
          | Some err -> (str "kind" err, str "message" err)
          | None -> ("?", "?")
        in
        Printf.eprintf "client: server error [%s] trace=%s: %s\n" kind
          (str "trace_id" json) message
      | _ -> ())
  in
  let run socket timeout_ms requests =
    let requests =
      if requests <> [] then requests
      else
        In_channel.input_all stdin |> String.split_on_char '\n'
        |> List.filter (fun l -> String.trim l <> "")
    in
    match Serve.Client.connect ?timeout_ms ~socket () with
    | Error msg ->
      Printf.eprintf "client: %s\n" msg;
      exit 1
    | Ok c ->
      let failed = ref false in
      List.iter
        (fun request ->
          match Serve.Client.rpc c request with
          | Ok response ->
            print_endline response;
            report_server_error response
          | Error msg ->
            Printf.eprintf "client: %s\n" msg;
            failed := true)
        requests;
      Serve.Client.close c;
      if !failed then exit 1
  in
  Cmd.v (Cmd.info "client" ~doc)
    Term.(const run $ socket_arg $ timeout_arg $ requests_arg)

let cache_cmd =
  let doc = "Inspect or clear the persistent design cache" in
  let dir_arg = Arg.(required & opt (some string) None & cache_dir_info) in
  let open_store dir =
    match Cache.open_store dir with
    | Ok s -> s
    | Error msg ->
      Printf.eprintf "cannot open cache %s: %s\n" dir msg;
      exit 1
  in
  let stats_cmd =
    let doc =
      "Print the store's residency and health counters (entries, bytes, \
       corrupt / version-skewed entries dropped on open)"
    in
    let run dir =
      let s = open_store dir in
      let c = Cache.store_counters s in
      Printf.printf "cache %s\n" (Cache.store_dir s);
      List.iter
        (fun (k, v) -> Printf.printf "  %-16s %d\n" k v)
        [ ("entries", c.Cache.entries);
          ("bytes", c.Cache.bytes);
          ("corrupt", c.Cache.corrupt);
          ("version_skew", c.Cache.version_skew) ]
    in
    Cmd.v (Cmd.info "stats" ~doc) Term.(const run $ dir_arg)
  in
  let clear_cmd =
    let doc = "Delete every entry in the store" in
    let run dir =
      let s = open_store dir in
      let n = (Cache.store_counters s).Cache.entries in
      Cache.store_clear s;
      Printf.printf "cleared %d entr%s from %s\n" n
        (if n = 1 then "y" else "ies")
        (Cache.store_dir s)
    in
    Cmd.v (Cmd.info "clear" ~doc) Term.(const run $ dir_arg)
  in
  Cmd.group (Cmd.info "cache" ~doc) [ stats_cmd; clear_cmd ]

let analyze_cmd =
  let doc =
    "Show the compiler's view: CIR, schedule, pipelining, ILP, bitwidths"
  in
  let run file entry =
    let program = program_of_file file in
    let lowered, _ =
      or_located_error file (fun () -> Passes.lower_simplify program ~entry)
    in
    let func = lowered.Lower.func in
    print_endline "=== CIR (after inlining and CFG simplification) ===";
    print_string (Cir.to_string func);
    print_endline "\n=== per-block schedule (default allocation) ===";
    Array.iter
      (fun blk ->
        let sched =
          Schedule.list_schedule func Schedule.default_allocation
            blk.Cir.instrs
        in
        if blk.Cir.instrs <> [] then
          Printf.printf "B%d: %d instrs in %d steps (ops/step: %s)\n"
            blk.Cir.b_id
            (List.length blk.Cir.instrs)
            sched.Schedule.num_steps
            (String.concat ","
               (Array.to_list
                  (Array.map string_of_int (Schedule.ops_per_step sched)))))
      func.Cir.fn_blocks;
    print_endline "\n=== pipelining (innermost loop) ===";
    (match Pipeline.modulo_schedule func with
    | r when r.Pipeline.fallback ->
      Printf.printf
        "II search diverged (RecMII=%d, ResMII=%d): left unpipelined, \
         list schedule of %d cycles\n"
        r.Pipeline.rec_mii r.Pipeline.res_mii r.Pipeline.sequential_cycles
    | r ->
      Printf.printf "II=%d (RecMII=%d, ResMII=%d), speedup %.2fx\n"
        r.Pipeline.ii r.Pipeline.rec_mii r.Pipeline.res_mii r.Pipeline.speedup
    | exception Pipeline.Irregular reason ->
      Printf.printf "not pipelineable: %s\n" reason);
    print_endline "\n=== bitwidth inference ===";
    let r = Bitwidth.infer func in
    let narrowed =
      Array.to_list (Array.init func.Cir.fn_reg_count Fun.id)
      |> List.filter (fun reg ->
             r.Bitwidth.widths.(reg) < r.Bitwidth.declared.(reg))
    in
    Printf.printf "%d of %d registers narrowed; reg bits %d -> %d\n"
      (List.length narrowed) func.Cir.fn_reg_count
      (Bitwidth.register_bits func ~widths:r.Bitwidth.declared)
      (Bitwidth.register_bits func ~widths:r.Bitwidth.widths);
    print_endline "\n=== ILP (dynamic, window 64, perfect speculation) ===";
    match func.Cir.fn_params with
    | [] ->
      let trace = Ilp_limits.trace_of func ~args:[] in
      let m =
        Ilp_limits.measure trace
          { Ilp_limits.window = 64; renaming = true; speculation = `Perfect }
      in
      Printf.printf "%d dynamic instrs, IPC %.2f\n" m.Ilp_limits.instructions
        m.Ilp_limits.ipc
    | params ->
      Printf.printf
        "(needs concrete inputs: entry takes %d parameter(s); using ones)\n"
        (List.length params);
      let trace =
        Ilp_limits.trace_of func ~args:(List.map (fun _ -> 1) params)
      in
      let m =
        Ilp_limits.measure trace
          { Ilp_limits.window = 64; renaming = true; speculation = `Perfect }
      in
      Printf.printf "%d dynamic instrs, IPC %.2f\n" m.Ilp_limits.instructions
        m.Ilp_limits.ipc
  in
  Cmd.v (Cmd.info "analyze" ~doc) Term.(const run $ file_arg $ entry_arg)

(* chlsc fuzz: the dialect-matrix differential fuzzer (lib/core/fuzz.ml).
   Exit 0 when every backend agrees with the reference on every generated
   program, 2 when any divergence survived — shrunk reproducers land in
   --out-dir so a failing run always leaves a pinnable .c behind. *)
let fuzz_cmd =
  let doc =
    "Differentially fuzz the backend matrix with dialect-gated random \
     programs"
  in
  let seed_arg =
    Arg.(value & opt int 1
         & info [ "seed" ] ~docv:"N"
             ~doc:
               "Generation seed.  The same seed, count and dialect list \
                reproduce the same corpus bit-for-bit")
  in
  let count_arg =
    Arg.(value & opt int 25
         & info [ "n"; "count" ] ~docv:"N"
             ~doc:"Programs to generate per dialect (default 25)")
  in
  let dialects_arg =
    Arg.(value & opt (some string) None
         & info [ "dialects" ] ~docv:"D,D,..."
             ~doc:
               "Comma-separated dialects to generate for (backend names or \
                Table 1 spellings).  Default: every dialect whose backend \
                compiles from C")
  in
  let out_dir_arg =
    Arg.(value & opt (some string) None
         & info [ "out-dir" ] ~docv:"DIR"
             ~doc:
               "Write each divergence as $(docv)/<dialect>-<index>-\
                <backend>.c (shrunk reproducer) and .orig.c (as generated)")
  in
  let slug name =
    String.lowercase_ascii
      (String.map (function ' ' | '(' | ')' | '/' -> '_' | c -> c) name)
  in
  let run seed n dialects out_dir verify_passes verify_sim metrics_json =
    let dialects =
      match dialects with
      | None -> Fuzz.default_dialects ()
      | Some s ->
        List.map
          (fun name -> or_exit (Registry.resolve_dialect name))
          (List.filter
             (fun s -> String.trim s <> "")
             (String.split_on_char ',' s))
    in
    let reports =
      Fuzz.run ~verify_passes ~verify_sim ~dialects ~seed ~n ()
    in
    let total_div = ref 0 in
    List.iter
      (fun (r : Fuzz.report) ->
        let nd = List.length r.Fuzz.rep_divergences in
        total_div := !total_div + nd;
        Printf.printf
          "%-18s %3d programs: %d agreed, %d rejected (expected), %d \
           divergence(s)  [%.0f ms]\n"
          r.Fuzz.rep_dialect r.Fuzz.rep_generated r.Fuzz.rep_agreed
          r.Fuzz.rep_rejected nd r.Fuzz.rep_wall_ms;
        List.iter
          (fun (d : Fuzz.divergence) ->
            Printf.printf "  #%d %s: %s (%s) args=%s\n" d.Fuzz.div_index
              d.Fuzz.div_backend d.Fuzz.div_class d.Fuzz.div_detail
              (String.concat ","
                 (List.map string_of_int d.Fuzz.div_args));
            match out_dir with
            | None -> ()
            | Some dir ->
              if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
              let base =
                Printf.sprintf "%s/%s-%d-%s" dir
                  (slug d.Fuzz.div_dialect)
                  d.Fuzz.div_index
                  (slug d.Fuzz.div_backend)
              in
              Out_channel.with_open_text (base ^ ".c") (fun oc ->
                  Printf.fprintf oc
                    "/* %s on %s: %s\n   args: %s\n   %s */\n%s"
                    d.Fuzz.div_backend d.Fuzz.div_dialect d.Fuzz.div_class
                    (String.concat ","
                       (List.map string_of_int d.Fuzz.div_args))
                    d.Fuzz.div_detail d.Fuzz.div_shrunk);
              Out_channel.with_open_text (base ^ ".orig.c") (fun oc ->
                  output_string oc d.Fuzz.div_source);
              Printf.printf "    reproducer: %s.c\n" base)
          r.Fuzz.rep_divergences)
      reports;
    (match metrics_json with
    | None -> ()
    | Some path ->
      Metrics.write_file (Fuzz.metrics reports) path;
      Printf.printf "wrote %s\n" path);
    if !total_div > 0 then begin
      Printf.printf "FUZZ: %d divergence(s)\n" !total_div;
      exit 2
    end
    else print_endline "FUZZ: all backends agree with the reference"
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(const run $ seed_arg $ count_arg $ dialects_arg $ out_dir_arg
          $ verify_passes_flag $ verify_sim_flag $ metrics_json_arg)

(* chlsc explore: the design-space sweep (lib/core/explore.ml).  Every
   grid point is a distinct Config digest, so repeated sweeps are warm
   cache hits per point — attach --cache-dir and they survive restarts
   too.  Exit 0 when every measured point is oracle-verified, 2 when a
   point failed or diverged from the reference (infeasible and
   dialect-rejected cells are expected, typed outcomes — not errors). *)
let explore_cmd =
  let doc =
    "Sweep a grid of synthesis configurations (resource bound x chaining \
     budget x unroll factor x backend), verify every design point \
     against the software oracle and print the Pareto front minimizing \
     (area, cycles, clock period)"
  in
  let backends_arg =
    Arg.(value & opt string "bachc,hardwarec,transmogrifier,c2v"
         & backends_info
             ~doc:
               "Comma-separated backends to sweep.  The default spans \
                the trade-off space: two schedulers (one with \
                timing-constraint reports, so infeasible cells show \
                up), the statement-per-state transmogrifier and the \
                one-instruction-per-cycle c2verilog machine")
  in
  let grid_arg =
    Arg.(value & opt (some string) None
         & info [ "grid" ] ~docv:"SPEC"
             ~doc:
               "Grid axes as $(b,adders=1,2;chain=10,200;unroll=1,2) \
                (the default).  Unset axes keep their defaults; \
                $(b,adders=*) means unconstrained")
  in
  let domains_arg =
    Arg.(value & opt (some int) None
         & domains_info
             ~doc:
               "Worker domains evaluating grid points in parallel \
                (default: up to 4, bounded by the machine and the point \
                count)")
  in
  let run file entry args backends_spec grid_spec domains metrics_json sim
      cache_dir cache_max_bytes =
    attach_cache cache_dir cache_max_bytes;
    let args =
      match args with
      | Some a -> parse_args_list a
      | None ->
        Printf.eprintf
          "explore verifies every point against the oracle: pass --args\n";
        exit 1
    in
    let grid =
      match grid_spec with
      | None -> Explore.default_grid
      | Some spec -> (
        match Explore.parse_grid spec with
        | Ok g -> g
        | Error msg ->
          Printf.eprintf "bad --grid: %s\n" msg;
          exit 1)
    in
    let backends =
      or_exit
        (Registry.resolve_backends (String.split_on_char ',' backends_spec))
    in
    let source = read_file file in
    let base = { Config.default with Config.sim } in
    let sweep =
      Explore.run ?domains ~base ~source ~entry ~args grid backends
    in
    Printf.printf "%s -e %s, args = %s: %d design points\n\n" file entry
      (String.concat "," (List.map string_of_int args))
      (List.length sweep.Explore.sw_cells);
    let header, rows = Explore.table sweep in
    print_table header rows;
    let count = Explore.count_status sweep in
    let failed = count "failed" and unverified = count "unverified" in
    Printf.printf
      "\n%d point(s): %d verified, %d infeasible, %d rejected, %d failed \
       [%.0f ms]\n"
      (List.length sweep.Explore.sw_cells)
      (Explore.verified_count sweep)
      (count "infeasible") (count "rejected") failed sweep.Explore.sw_wall_ms;
    Printf.printf "Pareto front (min area, cycles, period): %s\n"
      (match sweep.Explore.sw_pareto with
      | [] -> "empty"
      | ps -> String.concat ", " (List.map (fun i -> "#" ^ string_of_int i) ps));
    List.iter
      (fun (c : Explore.cell) ->
        match c.Explore.cell_status with
        | Explore.Infeasible d ->
          Printf.printf "  infeasible %s: %s\n" c.Explore.cell_backend d
        | Explore.Failed d ->
          Printf.printf "  FAILED %s: %s\n" c.Explore.cell_backend d
        | _ -> ())
      sweep.Explore.sw_cells;
    let cache_stat k =
      Option.value ~default:0 (List.assoc_opt k (Driver.cache_metrics ()))
    in
    Printf.printf "design cache: %d front hit(s), %d store hit(s) this run\n"
      (cache_stat "driver.cache.front_hits")
      (cache_stat "driver.store.hits");
    (match metrics_json with
    | Some path ->
      Metrics.write_file (Explore.metrics sweep) path;
      Printf.printf "wrote %s\n" path
    | None -> ());
    if failed > 0 || unverified > 0 then begin
      Printf.eprintf
        "EXPLORE: %d failed, %d unverified point(s) (see table)\n" failed
        unverified;
      exit 2
    end
  in
  Cmd.v (Cmd.info "explore" ~doc)
    Term.(const run $ file_arg $ entry_arg $ args_arg $ backends_arg
          $ grid_arg $ domains_arg $ metrics_json_arg $ sim_arg
          $ cache_dir_arg $ cache_max_bytes_arg)

let () =
  let doc = "C-like hardware synthesis: the DATE 2005 survey, executable" in
  let info = Cmd.info "chlsc" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ table1_cmd; check_cmd; run_cmd; compile_cmd; compare_cmd;
            analyze_cmd; explore_cmd; fuzz_cmd; serve_cmd; client_cmd;
            cache_cmd ]))
