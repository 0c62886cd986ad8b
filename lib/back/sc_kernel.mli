(** SystemC-style modeling kernel ("Verilog in C++", here in OCaml): a
    discrete-event kernel with signals (current/next with delta-cycle
    update), combinational processes re-run to convergence, and clocked
    processes fired per rising edge.  [run_fsmd] runs a scheduled FSMD
    as a process network: signals carry the FSM state and the done flag,
    and the one clocked process runs {!Rtlsim.step} on {!Cir_interp}'s
    machine, so the kernel adds only its signals and delta cycles to the
    shared datapath.  It is SystemC designs' event-driven engine
    ([--sim event]); by default they run on the compiled FSMD engine
    like every FSMD.  The backend entry point is {!Systemc}. *)

exception Unstable of string
(** Combinational processes failed to converge within the delta bound. *)

type signal
type kernel

val create : ?max_deltas:int -> unit -> kernel

val signal : kernel -> name:string -> width:int -> ?init:int -> unit -> signal

val read_int : signal -> int

val write_int : signal -> int -> unit

val sc_method : kernel -> name:string -> (unit -> unit) -> unit
(** Register a combinational process. *)

val sc_clocked : kernel -> name:string -> (unit -> unit) -> unit
(** Register a clock-edge-triggered process. *)

val run_until :
  kernel -> stop:signal -> max_cycles:int -> (int, [ `Timeout ]) result
(** Clock until [stop] reads true; returns the cycle count. *)

val run_fsmd :
  ?max_cycles:int -> ?trace:Rtlsim.trace -> Fsmd.t -> args:Bitvec.t list ->
  Rtlsim.outcome
(** Model an FSMD as a clocked process network and clock it until done:
    a drop-in for {!Rtlsim.run}, with the same outcome, trace stream and
    budget (default {!Rtlsim.max_cycles}).
    @raise Rtlsim.Timeout past the bound, with the current FSM state.
    @raise Cir_interp.Runtime_error on an arity mismatch. *)
