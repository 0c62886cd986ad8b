(** Timed token simulation of the asynchronous dataflow circuit: every
    value carries the time its token becomes available; operators fire
    when inputs (and the control token) arrive, taking latency plus a
    handshake overhead; memory is token-serialized per region.  No clock
    anywhere — completion time is the dynamic critical path, which is the
    asynchronous advantage experiment E6 measures.

    What each token carries is {!Cir_interp}'s machine: every operator
    fires through its {!Cir_interp.step}.  This module adds the token
    times, the phi merges (a phi takes the value on the edge control
    arrived by; edge [-1] at the entry) and the per-region memory token
    order.  It is also the SSA form's only evaluator. *)

type timing = {
  latency : Cir.instr -> float;  (** pure computation delay, time units *)
  handshake : float;  (** per-token request/acknowledge overhead *)
}

val default_timing_for : ?handshake:float -> Cir.func -> timing
(** Latencies consistent with the Area delay model (so synchronous and
    asynchronous designs compare on one scale), using each operand's
    declared register width — a narrow adder is charged a narrow ripple
    delay.  Default handshake 2.0. *)

type outcome = {
  return_value : Bitvec.t option;
  completion_time : float;
  tokens_fired : int;
  globals : (string * Bitvec.t) list;
  memories : (string * Bitvec.t array) list;
}

exception Timeout of { tokens_fired : int; time : float }
(** Raised past [max_tokens], carrying how many tokens had fired and the
    latest completion time reached, so callers can report a partial
    outcome instead of a bare failure. *)

type plan
(** A circuit with every instruction's latency and read registers
    tabled, so a run neither recomputes the cost model nor allocates per
    firing.  Immutable: domains may share one. *)

val plan : ?timing:timing -> Ssa.t -> plan
(** Table the circuit under [timing] (default {!default_timing_for}). *)

val run_plan :
  ?max_tokens:int ->
  ?on_fire:(time:float -> reg:Cir.reg -> value:Bitvec.t -> unit) ->
  plan -> args:Bitvec.t list -> outcome
(** {!run} on a planned circuit. *)

val run :
  ?timing:timing ->
  ?max_tokens:int ->
  ?on_fire:(time:float -> reg:Cir.reg -> value:Bitvec.t -> unit) ->
  Ssa.t -> args:Bitvec.t list -> outcome
(** [on_fire] observes each committed token (completion time, defined
    register, value).  Tokens are reported in execution order, not time
    order — Obs.Trace buffers and sorts before writing a waveform.  The
    hook observes only; it cannot perturb the run.
    @raise Timeout past [max_tokens] (default 10M).
    @raise Cir_interp.Runtime_error on an arity mismatch. *)
