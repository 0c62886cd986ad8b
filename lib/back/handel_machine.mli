(** The Handel-C statement machine [Celoxica], also the concurrent subset
    of Bach C, SpecC, SystemC and HardwareC.

    A cycle-accurate statement machine over the interpreter's expression
    semantics: assignments and [delay] cost exactly one cycle, control is
    free (unbounded zero-cost stepping is rejected as a combinational
    cycle), a rendezvous transfer costs one cycle for both endpoints.
    The [`Scheduled] policy instead packs independent assignments per
    cycle (Bach C's compiler-decided timing for concurrent programs).

    The backend wrapper lives in {!Handelc}; {!Design.make} runs this
    machine for every statement-machine design. *)

exception Combinational_loop
exception Deadlock
exception Timeout

type policy = [ `One_cycle_per_assignment | `Scheduled ]

type outcome = {
  return_value : Bitvec.t option;
  cycles : int;
  assignments : int;  (** dynamic assignment count *)
  store : Interp.store;
}

val run :
  ?max_cycles:int -> ?ops_per_cycle:int -> policy:policy -> Ast.program ->
  entry:string -> args:Bitvec.t list -> outcome
(** Run the statement machine to completion.
    @raise Deadlock / Timeout / Combinational_loop as named. *)

val observe :
  Ast.program -> outcome ->
  (string * Bitvec.t) list * (string * Bitvec.t array) list
(** The program's scalar globals and array globals after a run, in
    declaration order. *)

val estimate_clock_period : Ast.program -> float
(** The deepest assignment expression's combinational delay: Handel-C's
    achievable clock (assignments must settle in one cycle). *)

val estimate_area : Ast.program -> float
(** Dedicated hardware per static assignment plus variable registers. *)
