(** The common result type of every synthesis backend.

    Backends produce different artifacts (combinational netlists,
    scheduled FSMDs, statement machines, asynchronous circuits, a stack
    machine).  A design carries its artifact as plain data; {!make}
    derives the uniform behavioural interface — run on inputs, observe
    outputs and timing — and the optional structural views from it. *)

type engine =
  | Compiled
      (** fast path over unboxed ints ({!Netcomp}/{!Fsmdcomp}/{!C2vcomp}) *)
  | Event_driven
      (** interpreting oracle ({!Neteval}/{!Rtlsim}/{!C2v_machine}; SystemC's
          process network runs on {!Sc_kernel}) *)
      (** Which simulation engine executes the behavioural run.  The
          interpreter survives as the differential oracle for the
          compiled engine ([chlsc compile --verify-sim]); CASH and the
          statement machine have one engine each and ignore the
          selection. *)

val engine_name : engine -> string
(** ["compiled"], ["event"] — the [--sim] flag values. *)

val engine_of_name : string -> engine option

(** What a backend built, as data: nothing here is a closure, so a
    design's data part marshals without the closures flag. *)
type artifact =
  | Fsmd of Fsmd.t
      (** scheduled FSMD: Transmogrifier C, Bach C/Cyber, HardwareC,
          sequential SpecC, Ocapi *)
  | Process_network of Fsmd.t
      (** SystemC's FSMD: it runs like {!Fsmd}, with a clocked process
          network ({!Sc_kernel}) as its event-driven engine *)
  | Combinational of { netlist : Netlist.t; critical_path : float }
      (** Cones' two-level network; its critical path is the settle time
          every run reports *)
  | Dataflow of { circuit : Dfg.t; handshake : float option }
      (** CASH's asynchronous circuit over the SSA function
          [circuit.ssa]; [handshake] overrides the default per-token
          overhead of {!Asim} *)
  | Stack_machine of { compiled : C2verilog.compiled; ret_width : int }
      (** C2Verilog's processor ({!C2vcomp}, {!C2v_machine}) *)
  | Statement_machine of {
      program : Ast.program;
      entry : string;
      policy : Handel_machine.policy;
      structural : Cir.func option;
          (** the lowered function behind the sequential subset's netlist
              view; [None] for concurrent programs *)
    }
      (** Handel-C, and the concurrent paths of Bach C, SystemC, SpecC
          and HardwareC ({!Handel_machine}) *)

type run_result = {
  result : Bitvec.t option;
  globals : (string * Bitvec.t) list;  (** scalar globals after the run *)
  memories : (string * Bitvec.t array) list;  (** array globals after *)
  cycles : int option;  (** clocked designs *)
  time_units : float option;  (** asynchronous / combinational settle *)
  metrics : Metrics.t;
      (** simulator performance counters for this run (cycles, state
          visits, token firings, evaluator activity) in the unified
          registry; [chlsc compile --metrics-json] merges it into the run
          report *)
}

(** {1 Stopped runs} *)

type stop_reason =
  | Timeout
  | Deadlock
  | Combinational_loop
  | Fault of string
      (** the machine's own runtime error, with its message: stack
          overflow, a load or store outside memory, an exhausted heap, an
          argument vector the CIR machine's arity check refuses *)

(** How far a stopped run got, as far as its simulator reports it. *)
type progress =
  | Cycles of { cycles : int; state : int }  (** FSMDs, SystemC's kernel *)
  | Tokens of { fired : int; time : float }  (** CASH *)
  | Unreported
      (** the Handel-C and C2Verilog machines, and every fault *)

type stop = { reason : stop_reason; progress : progress }

exception Stopped of stop
(** What [run] raises when a simulator ends the run without a result.
    The simulators keep their own exceptions and budgets; the dispatch
    inside {!make} is the only code that catches them. *)

val stop_reason_name : stop_reason -> string
(** ["timeout"], ["deadlock"], ["combinational-loop"], ["fault"]. *)

val render_stop : stop -> string
(** ["timeout after 2000000 cycles (in state 2)"], ["deadlock"],
    ["fault: stack overflow"]. *)

(** The data part of a design: everything {!make} needs to rebuild it. *)
type data = {
  design_name : string;
  backend : string;
  artifact : artifact;
  clock_period : float option;
  stats : (string * string) list;
  pass_trace : Passes.trace;
}

type t = private {
  design_name : string;
  backend : string;
  artifact : artifact;
  clock_period : float option;  (** estimated; [None] when unclocked *)
  stats : (string * string) list;  (** backend-specific facts *)
  pass_trace : Passes.trace;
      (** per-pass compile record (time, IR-size deltas, vectors verified)
          from the backend's declared pipeline; [[]] for structural
          backends that run no passes.  [chlsc compile --trace-passes]
          renders it. *)
  run : ?vcd:Vcd.t -> ?sim:engine -> Bitvec.t list -> run_result;
      (** [vcd]: trace the behavioural simulation as a waveform (FSMDs
          trace per-cycle register state, netlists their value changes,
          CASH its token firings); other artifacts ignore it.  [sim]:
          engine selection, default {!Compiled}.
          @raise Stopped when the simulator ends the run without a
          result *)
  area : unit -> Area.report option;
  verilog : unit -> string option;
  netlist : unit -> Netlist.t option;
      (** the word-level structural view, when the artifact elaborates to
          one (area and Verilog derive from it; [chlsc --stats] drives it
          through the netlist evaluator) *)
}
(** Private: only {!make} builds the views, so none can go stale against
    the artifact. *)

val make :
  name:string -> backend:string -> ?clock_period:float ->
  ?stats:(string * string) list -> ?pass_trace:Passes.trace -> artifact -> t
(** Derive [run], [area], [verilog] and [netlist] from the artifact.  The
    structural views are built lazily, at most once per value.  Compiled
    runs of an FSMD, process network, combinational netlist or stack
    machine take an engine from the value's own pool (built on demand,
    reused after), so runs from several domains never share an engine
    and never wait for each other's simulation. *)

val data : t -> data
val of_data : data -> t
(** [of_data (data d)] rebuilds [d] with fresh views — the design
    cache's codec, and how a backend relabels a design. *)

val int_args : int list -> Bitvec.t list
(** 64-bit argument vectors from plain integers. *)

val run_traced :
  ?ctx:Span.ctx -> ?vcd:Vcd.t -> ?sim:engine -> t -> Bitvec.t list -> run_result
(** [run] inside a ["simulate"] span: backend and engine kind as
    attributes up front, cycles / settle time attached on completion, an
    ["error"] attribute (and a re-raise) on {!Stopped} and runtime
    errors.  With the default null context this is exactly
    [design.run]. *)

val run_int : t -> int list -> int option
(** Run with integer arguments; the result as an int. *)

val latency_estimate : t -> run_result -> float option
(** Wall-clock estimate: cycles x clock period for clocked designs, the
    recorded completion/settle time otherwise. *)
