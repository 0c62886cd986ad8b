(** CIR interpreter: executes a lowered function directly — the mid-level
    oracle between the AST interpreter and the hardware simulators, and
    the source of the dynamic instruction traces the ILP study consumes.

    Its {!machine} is the one Bitvec-level CIR datapath: the only code
    that builds a CIR register file and memory images and evaluates CIR
    instructions over [Bitvec].  {!run} walks the CFG over it; Rtlsim and
    the SystemC kernel clock it one FSMD state at a time; Asim times its
    tokens around it.  The simulators differ only in when a value becomes
    visible, never in what an instruction computes.

    Memory semantics are total (out-of-range loads read zero, stores are
    ignored), so if-converted speculative accesses stay safe. *)

exception Runtime_error of string
(** An argument vector whose length is not the function's parameter
    count. *)

exception Timeout

(** {1 The machine} *)

type machine = {
  func : Cir.func;
  regs : Bitvec.t array;  (** the register file, one word per register *)
  memories : Bitvec.t array array;  (** one image per region *)
}

val arguments : Cir.func -> Bitvec.t list -> (Cir.reg * Bitvec.t) list
(** Each parameter register with its argument, sign-resized to the
    register's width: the one arity check.
    @raise Runtime_error when the vector's length is not the parameter
    count. *)

val start : Cir.func -> args:Bitvec.t list -> machine
(** A fresh machine: registers zeroed at their declared widths, scalar
    globals initialised, memory images copied from the regions'
    initialisers, then the parameters bound by {!arguments}.
    @raise Runtime_error on an arity mismatch. *)

val value : machine -> Cir.operand -> Bitvec.t
(** An operand's current value. *)

val step : machine -> Cir.instr -> unit
(** Execute one instruction: its result is visible at once, and a store
    commits at once under the total rule. *)

val commit : machine -> region:int -> addr:int -> Bitvec.t -> unit
(** Write one word under the total rule (an address past the region's
    end is ignored): how a simulator that buffers its stores applies
    them. *)

val globals : machine -> (string * Bitvec.t) list
(** The scalar globals, in declaration order. *)

val memories : machine -> (string * Bitvec.t array) list
(** Each region's live image, by name. *)

(** {1 Running a function} *)

type outcome = {
  return_value : Bitvec.t option;
  dynamic_instrs : int;
  globals : (string * Bitvec.t) list;
  memories : (string * Bitvec.t array) list;
  trace : (int * Cir.instr) list;
      (** (block id, instruction) in execution order, when recorded *)
}

val run :
  ?max_steps:int -> ?record_trace:bool -> Cir.func -> args:Bitvec.t list ->
  outcome
(** Execute with argument values bound to the parameter registers.
    @raise Timeout past [max_steps] dynamic instructions (default 10M).
    @raise Runtime_error on an arity mismatch. *)
