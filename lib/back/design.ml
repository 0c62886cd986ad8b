(* The common result type of every synthesis backend.

   Backends produce wildly different artifacts — a pure combinational
   netlist (Cones), a scheduled FSMD (Transmogrifier/Bach C/HardwareC), a
   statement-clocked machine (Handel-C), an asynchronous dataflow circuit
   (CASH), a stack-machine processor (C2Verilog).  A design carries that
   artifact as plain data; [make] derives the uniform behavioural
   interface (run on inputs, observe outputs and timing) and the optional
   structural views (area report, Verilog, netlist) from it, in one
   place.  Simulation and HDL are views of the data, never the data. *)

(* Which simulation engine executes the behavioural run.  Compiled is
   the fast path over unboxed ints (Netcomp's packed code, Fsmdcomp's
   per-state closures, C2vcomp's decoded stack code); Event_driven — the
   change-propagating Neteval, the instruction-walking Rtlsim (SystemC's
   kernel for a process network), the Bitvec-word C2v_machine — survives
   as the differential oracle.  A compiled engine holds only what its
   [compilable] accepts; the runs below alone choose, and run anything
   else on the oracle.  CASH and the statement machine have one engine
   each and ignore the selection. *)
type engine = Compiled | Event_driven

let engine_name = function Compiled -> "compiled" | Event_driven -> "event"

let engine_of_name = function
  | "compiled" -> Some Compiled
  | "event" -> Some Event_driven
  | _ -> None

type artifact =
  | Fsmd of Fsmd.t
  | Process_network of Fsmd.t
  | Combinational of { netlist : Netlist.t; critical_path : float }
  | Dataflow of { circuit : Dfg.t; handshake : float option }
  | Stack_machine of { compiled : C2verilog.compiled; ret_width : int }
  | Statement_machine of {
      program : Ast.program;
      entry : string;
      policy : Handel_machine.policy;
      structural : Cir.func option;
    }

type run_result = {
  result : Bitvec.t option;
  globals : (string * Bitvec.t) list;
  memories : (string * Bitvec.t array) list;
  cycles : int option; (* clocked designs *)
  time_units : float option; (* asynchronous / combinational settle time *)
  metrics : Metrics.t;
      (* simulator performance counters for this run (cycles, state
         visits, token firings, evaluator activity) in the unified
         registry; --metrics-json merges it into the run report *)
}

(* Every way a simulator ends a run without a result.  The simulators
   keep their own exceptions and budgets (their tests pin them); the
   dispatch in [run_of_artifact] alone knows which one each raises.  A
   fault is the machine's own runtime error (stack overflow, a wild
   address, an exhausted heap), with its message. *)
type stop_reason = Timeout | Deadlock | Combinational_loop | Fault of string

type progress =
  | Cycles of { cycles : int; state : int }
  | Tokens of { fired : int; time : float }
  | Unreported

type stop = { reason : stop_reason; progress : progress }

exception Stopped of stop

let stop_reason_name = function
  | Timeout -> "timeout"
  | Deadlock -> "deadlock"
  | Combinational_loop -> "combinational-loop"
  | Fault _ -> "fault"

let render_stop { reason; progress } =
  let reason =
    match reason with
    | Fault message -> "fault: " ^ message
    | Timeout | Deadlock | Combinational_loop -> stop_reason_name reason
  in
  match progress with
  | Cycles { cycles; state } ->
    Printf.sprintf "%s after %d cycles (in state %d)" reason cycles state
  | Tokens { fired; time } ->
    Printf.sprintf "%s after %d tokens (at time %.1f)" reason fired time
  | Unreported -> reason

let () =
  Printexc.register_printer (function
    | Stopped s -> Some ("Design.Stopped: " ^ render_stop s)
    | _ -> None)

type data = {
  design_name : string;
  backend : string;
  artifact : artifact;
  clock_period : float option;
  stats : (string * string) list;
  pass_trace : Passes.trace;
}

type t = {
  design_name : string;
  backend : string;
  artifact : artifact;
  clock_period : float option; (* estimated; None for unclocked designs *)
  stats : (string * string) list; (* backend-specific key/value facts *)
  pass_trace : Passes.trace;
      (* per-pass compile record from the backend's declared pipeline;
         [] for structural backends that run no passes *)
  run : ?vcd:Vcd.t -> ?sim:engine -> Bitvec.t list -> run_result;
  area : unit -> Area.report option;
  verilog : unit -> string option;
  netlist : unit -> Netlist.t option;
}

(* --- behavioural views ---------------------------------------------- *)

let outcome ?(globals = []) ?(memories = []) ?cycles ?time_units ~metrics
    result =
  { result; globals; memories; cycles; time_units; metrics }

(* One small pool of simulation engines per design.  A run pops a free
   engine or builds one, runs, and pushes it back, so worker domains
   running one design each hold an engine of their own and never wait on
   each other; the pool grows to the most runs ever in flight at once.
   Engines reset themselves at the start of every run.  A run that raises
   drops its engine rather than return it. *)
let pool create =
  let lock = Mutex.create () and free = ref [] in
  fun run ->
    let engine =
      match
        Mutex.protect lock (fun () ->
            match !free with
            | e :: rest ->
              free := rest;
              Some e
            | [] -> None)
      with
      | Some e -> e
      | None -> create ()
    in
    let r = run engine in
    Mutex.protect lock (fun () -> free := engine :: !free);
    r

(* A value built on first use, at most once, by whichever domain asks
   first; later asks read it without taking the lock. *)
let once build =
  let lock = Mutex.create () and value = Atomic.make None in
  fun () ->
    match Atomic.get value with
    | Some v -> v
    | None ->
      Mutex.protect lock (fun () ->
          match Atomic.get value with
          | Some v -> v
          | None ->
            let v = build () in
            Atomic.set value (Some v);
            v)

let engine_metric metrics ran_compiled =
  Metrics.set_string metrics "sim.engine"
    (if ran_compiled then "compiled" else "event")

(* A compiled run of an FSMD takes the design's Fsmdcomp pool when the
   engine holds the FSMD, and Rtlsim when it does not; the scan that
   decides runs on the first compiled run, once.  [event] is the
   event-driven engine: Rtlsim, or SystemC's kernel for a process
   network. *)
let fsmd_run
    ~(event :
       ?max_cycles:int -> ?trace:Rtlsim.trace -> Fsmd.t ->
       args:Bitvec.t list -> Rtlsim.outcome) fsmd =
  let compilable = once (fun () -> Fsmdcomp.compilable fsmd)
  and with_engine = pool (fun () -> Fsmdcomp.create fsmd) in
  fun ?vcd ?(sim = Compiled) args ->
    let trace = Option.map (fun v -> Trace.rtlsim_trace v fsmd) vcd in
    let o, ran_compiled =
      match sim with
      | Compiled when compilable () ->
        (with_engine (fun e -> Fsmdcomp.execute ?trace e ~args), true)
      | Compiled -> (Rtlsim.run ?trace fsmd ~args, false)
      | Event_driven -> (event ?trace fsmd ~args, false)
    in
    let metrics = Metrics.create () in
    engine_metric metrics ran_compiled;
    Metrics.set_int metrics "sim.cycles" o.Rtlsim.cycles;
    Metrics.set metrics "sim.states_visited"
      (Metrics.List
         (Array.to_list
            (Array.map (fun n -> Metrics.Int n) o.Rtlsim.states_visited)));
    outcome o.Rtlsim.return_value ~globals:o.Rtlsim.globals
      ~memories:o.Rtlsim.memories ~cycles:o.Rtlsim.cycles ~metrics

(* One settle per run.  A compiled run takes a pooled Netcomp engine,
   reset first, when untraced, and a fresh one when traced, so no pooled
   engine keeps a probe; a reset engine keeps counting, so the run's
   counters are deltas.  A netlist Netcomp does not hold (the scan runs
   on the first compiled run, once) settles on a pooled Neteval, as an
   event-driven run does.  Scalar globals leave the block as outputs
   [g_<name>]; the settle time is the netlist's critical path. *)
let netlist_run nl ~critical_path =
  let compilable = once (fun () -> Netcomp.compilable nl)
  and with_engine = pool (fun () -> Netcomp.create nl)
  and with_evaluator = pool (fun () -> Neteval.create nl) in
  let settle e ~inputs =
    let before = Netcomp.stats e in
    let nodes = before.Neteval.nodes_evaluated
    and events = before.Neteval.events in
    Netcomp.settle e ~inputs;
    let after = Netcomp.stats e in
    ( List.map
        (fun (name, s) -> (name, Netcomp.value e s))
        (Netlist.outputs nl),
      after.Neteval.nodes_evaluated - nodes,
      after.Neteval.events - events )
  in
  fun ?vcd ?(sim = Compiled) args ->
    let inputs =
      List.map2 (fun (name, _) v -> (name, v)) (Netlist.inputs nl) args
    in
    let probe = Option.map (fun v -> Trace.neteval_probe v nl) vcd in
    let compiled = sim = Compiled && compilable () in
    let outputs, nodes, events =
      match probe with
      | None when compiled ->
        with_engine (fun e ->
            Netcomp.reset e;
            settle e ~inputs)
      | Some p when compiled ->
        let e = Netcomp.create nl in
        Netcomp.set_probe e p;
        settle e ~inputs
      | None | Some _ ->
        with_evaluator (fun t ->
            Neteval.reset t;
            Option.iter (Neteval.set_probe t) probe;
            Neteval.settle t ~inputs;
            let st = Neteval.stats t in
            ( List.map
                (fun (name, s) -> (name, Neteval.value t s))
                (Netlist.outputs nl),
              st.Neteval.nodes_evaluated,
              st.Neteval.events ))
    in
    let metrics = Metrics.create () in
    engine_metric metrics compiled;
    Metrics.set_int metrics "sim.nodes_evaluated" nodes;
    Metrics.set_int metrics "sim.events" events;
    outcome
      (List.assoc_opt "result" outputs)
      ~globals:
        (List.filter_map
           (fun (name, v) ->
             if String.length name > 2 && String.sub name 0 2 = "g_" then
               Some (String.sub name 2 (String.length name - 2), v)
             else None)
           outputs)
      ~time_units:critical_path ~metrics

(* A compiled run of a stack machine takes the design's C2vcomp pool when
   the engine holds the program (the scan runs on the first compiled run,
   once) and this run's arguments (checked run by run); anything else
   runs on C2v_machine. *)
let stack_run compiled ~ret_width =
  let compilable = once (fun () -> C2vcomp.compilable compiled)
  and with_engine = pool (fun () -> C2vcomp.create compiled ~ret_width) in
  fun ?vcd:_ ?(sim = Compiled) args ->
    let words =
      match sim with
      | Compiled when compilable () -> C2vcomp.words args
      | Compiled | Event_driven -> None
    in
    let o =
      match words with
      | Some words -> with_engine (fun e -> C2vcomp.execute e words)
      | None -> C2v_machine.run compiled ~ret_width ~args
    in
    let metrics = Metrics.create () in
    engine_metric metrics (Option.is_some words);
    Metrics.set_int metrics "sim.cycles" o.C2v_machine.cycles;
    outcome o.C2v_machine.return_value ~globals:o.C2v_machine.globals
      ~memories:o.C2v_machine.memories ~cycles:o.C2v_machine.cycles ~metrics

(* SSA renaming grows the register file, and the token simulator executes
   the SSA: the timing model and the tracer both see the SSA function.
   Each instruction's latency and uses are tabled on the design's first
   run, once. *)
let dataflow_run ssa ~handshake =
  let func = ssa.Ssa.func in
  let plan =
    once (fun () ->
        Asim.plan ~timing:(Asim.default_timing_for ?handshake func) ssa)
  in
  fun ?vcd ?sim:_ args ->
    let tracer = Option.map (fun v -> Trace.asim_tracer v func) vcd in
    let o = Asim.run_plan ?on_fire:(Option.map fst tracer) (plan ()) ~args in
    Option.iter (fun (_, finalize) -> finalize ()) tracer;
    let metrics = Metrics.create () in
    Metrics.set_int metrics "sim.tokens_fired" o.Asim.tokens_fired;
    Metrics.set_fixed metrics "sim.completion_time" ~decimals:1
      o.Asim.completion_time;
    outcome o.Asim.return_value ~globals:o.Asim.globals
      ~memories:o.Asim.memories ~time_units:o.Asim.completion_time ~metrics

let simulator_of_artifact = function
  | Fsmd fsmd -> fsmd_run ~event:Rtlsim.run fsmd
  | Process_network fsmd -> fsmd_run ~event:Sc_kernel.run_fsmd fsmd
  | Combinational { netlist; critical_path } ->
    netlist_run netlist ~critical_path
  | Dataflow { circuit; handshake } -> dataflow_run circuit.Dfg.ssa ~handshake
  | Stack_machine { compiled; ret_width } -> stack_run compiled ~ret_width
  | Statement_machine { program; entry; policy; _ } ->
    (* resolved on the design's first run, once, whichever domain runs
       it first *)
    let resolved = once (fun () -> Interp.resolve program) in
    fun ?vcd:_ ?sim:_ args ->
      let o = Handel_machine.run ~policy (resolved ()) ~entry ~args in
      let globals, memories = Handel_machine.observe program o in
      let metrics = Metrics.create () in
      Metrics.set_int metrics "sim.cycles" o.Handel_machine.cycles;
      outcome o.Handel_machine.return_value ~globals ~memories
        ~cycles:o.Handel_machine.cycles ~metrics

let run_of_artifact artifact =
  let run = simulator_of_artifact artifact in
  let stop reason progress = raise (Stopped { reason; progress }) in
  fun ?vcd ?sim args ->
    match run ?vcd ?sim args with
    | r -> r
    | exception Rtlsim.Timeout { cycles; state } ->
      (* FSMD runs and SystemC's kernel *)
      stop Timeout (Cycles { cycles; state })
    | exception Asim.Timeout { tokens_fired; time } ->
      stop Timeout (Tokens { fired = tokens_fired; time })
    | exception
        (Handel_machine.Timeout | C2v_machine.Timeout | Interp.Timeout) ->
      (* Interp's: the step budget the Handel-C clock shares *)
      stop Timeout Unreported
    | exception Handel_machine.Deadlock -> stop Deadlock Unreported
    | exception Handel_machine.Combinational_loop ->
      stop Combinational_loop Unreported
    | exception
        ( C2v_machine.Runtime_error message
        | Interp.Runtime_error message
        | Cir_interp.Runtime_error message ) ->
      (* the C2Verilog machines, the Handel-C machine's store, and the
         CIR machine under the FSMD, SystemC and CASH simulators *)
      stop (Fault message) Unreported

(* --- structural views ----------------------------------------------- *)

let elaborate fsmd =
  match Rtlgen.elaborate fsmd with
  | e -> Some e.Rtlgen.netlist
  | exception Rtlgen.Elaboration_error _ -> None

(* The word-level netlist, when the artifact elaborates to one: an FSMD
   directly, a sequential statement machine through an FSMD cut at
   assignment boundaries. *)
let netlist_of_artifact = function
  | Fsmd fsmd -> elaborate fsmd
  | Statement_machine { structural = Some func; _ } ->
    elaborate (Fsmd.of_func func ~schedule_block:(Fsmd.handelc_schedule func))
  | Combinational { netlist; _ } -> Some netlist
  | Process_network _ | Dataflow _ | Stack_machine _
  | Statement_machine { structural = None; _ } -> None

let area_of_artifact ~netlist = function
  | Dataflow { circuit; _ } ->
    Some
      { Area.combinational_area = Dfg.area circuit;
        register_area = 0.;
        memory_bits = 0;
        memory_area = 0.;
        total_area = Dfg.area circuit;
        critical_path = 0.;
        num_nodes = (Dfg.stats circuit).Dfg.total;
        num_registers = 0 }
  | Stack_machine { compiled; _ } ->
    (* fixed CPU datapath + code ROM + unified RAM *)
    let code_words = Array.length compiled.C2verilog.code in
    let cpu = 9_000. and rom = float_of_int (code_words * 40) in
    let ram_bits = compiled.C2verilog.memory_words * 64 in
    Some
      { Area.combinational_area = cpu;
        register_area = 600.;
        memory_bits = ram_bits + (code_words * 40);
        memory_area = rom +. float_of_int ram_bits;
        total_area = cpu +. 600. +. rom +. float_of_int ram_bits;
        critical_path = 30.;
        num_nodes = code_words;
        num_registers = 4 }
  | Fsmd _ | Process_network _ | Combinational _ | Statement_machine _ ->
    Option.map Area.analyze (netlist ())

(* A cached design is shared by every worker domain, so each view is
   built [once].  Compiled runs of an FSMD or process network
   (Fsmdcomp), a netlist (Netcomp) or a stack machine (C2vcomp) take
   engines from the value's own pool, when the engine holds the
   artifact. *)
let make ~name ~backend ?clock_period ?(stats = []) ?(pass_trace = [])
    artifact : t =
  let netlist = once (fun () -> netlist_of_artifact artifact) in
  let area = once (fun () -> area_of_artifact ~netlist artifact) in
  let verilog =
    once (fun () ->
        match artifact with
        | Stack_machine { compiled; _ } ->
          Some (C2v_verilog.to_string compiled ~name)
        | Fsmd _ | Process_network _ | Combinational _ | Dataflow _
        | Statement_machine _ -> Option.map Verilog.to_string (netlist ()))
  in
  { design_name = name;
    backend;
    artifact;
    clock_period;
    stats;
    pass_trace;
    run = run_of_artifact artifact;
    area;
    verilog;
    netlist }

let data (d : t) : data =
  { design_name = d.design_name;
    backend = d.backend;
    artifact = d.artifact;
    clock_period = d.clock_period;
    stats = d.stats;
    pass_trace = d.pass_trace }

let of_data (d : data) =
  make ~name:d.design_name ~backend:d.backend ?clock_period:d.clock_period
    ~stats:d.stats ~pass_trace:d.pass_trace d.artifact

let int_args args = List.map (Bitvec.of_int ~width:64) args

(* [run] behind a "simulate" span: engine kind and backend as attributes
   up front (so a crashed/stopped run still identifies itself in the
   flight recorder), cycles and settle time attached after.  The span
   machinery adds an "error" attribute and re-raises on [Stopped] and
   runtime errors, so failure context survives into the ring buffer. *)
let run_traced ?(ctx = Span.null) ?vcd ?sim design args =
  Span.span ctx "simulate"
    ~attrs:
      [ ("backend", Metrics.String design.backend);
        ( "engine",
          Metrics.String (engine_name (Option.value sim ~default:Compiled)) )
      ]
    (fun sctx ->
      let r = design.run ?vcd ?sim args in
      (match r.cycles with
      | Some c -> Span.add_attr sctx "cycles" (Metrics.Int c)
      | None -> ());
      (match r.time_units with
      | Some t -> Span.add_attr sctx "time_units" (Metrics.Fixed (1, t))
      | None -> ());
      r)

(** Run with plain integer arguments; returns the result as an int. *)
let run_int design args =
  let r = design.run (int_args args) in
  Option.map Bitvec.to_int r.result

(** Wall-clock estimate of a run: cycles x clock period for clocked
    designs, the recorded settle/completion time otherwise. *)
let latency_estimate design (r : run_result) =
  match (r.cycles, design.clock_period, r.time_units) with
  | Some cycles, Some period, _ -> Some (float_of_int cycles *. period)
  | _, _, Some t -> Some t
  | _ -> None
