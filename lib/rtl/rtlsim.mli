(** Cycle-accurate FSMD simulator: one step = one clock = one state.

    The datapath is {!Cir_interp}'s machine; this module is the clock
    around it.  Within a state, actions execute in order with immediate
    register visibility (chaining-by-wire); stores are buffered to the
    cycle end unless the FSMD forwards them ([Fsmd.mem_forwarding],
    register-file memories).  {!step} is one such clock; the SystemC
    kernel's clocked process runs it too. *)

exception Timeout of { cycles : int; state : int }
(** Raised past [max_cycles], carrying how far the run got (cycles
    elapsed, the state being executed) so callers can report a partial
    outcome instead of a bare failure. *)

type trace = {
  on_cycle :
    cycle:int ->
    state:int ->
    regs:Bitvec.t array ->
    stores:(int * int * Bitvec.t) list ->
    unit;
      (** Fired once per clock cycle, after the state's actions and
          memory commits: the state executed, the whole register file,
          and the (region, address, value) stores this cycle.  The hook
          observes only — it receives committed values and cannot perturb
          the run. *)
}

type outcome = {
  return_value : Bitvec.t option;
  cycles : int;
  globals : (string * Bitvec.t) list;
  memories : (string * Bitvec.t array) list;
  states_visited : int array;
      (** visit count per state; sums to [cycles] (profiling) *)
}

type transition = Goto of int | Halt of Bitvec.t option
    (** the next state, or the result the FSMD halts with *)

val step :
  Cir_interp.machine -> Fsmd.t -> int ->
  (int * int * Bitvec.t) list * transition
(** One clock in the given state: its actions in order on the machine,
    its stores committed at the clock edge in program order (or at once,
    when the FSMD forwards), then its transition.  Returns the cycle's
    (region, address, value) stores in program order with the
    transition. *)

val max_cycles : int
(** The default cycle budget of every FSMD engine: this clock, the
    compiled {!Fsmdcomp}, SystemC's kernel, and the netlists an FSMD
    elaborates to, so they time out at the same cycle. *)

val run :
  ?max_cycles:int -> ?trace:trace -> Fsmd.t -> args:Bitvec.t list -> outcome
(** Clock the FSMD from its entry state on a fresh {!Cir_interp.start}
    machine until it halts.
    @raise Timeout past [max_cycles] (default {!max_cycles}).
    @raise Cir_interp.Runtime_error on an arity mismatch. *)
