(** The Handel-C clock [Celoxica], also the concurrent subset of Bach C,
    SpecC, SystemC and HardwareC.

    A clock over {!Interp}'s thread machine, run on a program
    {!Interp.resolve} built once per design: the threads, frames,
    rendezvous and joins are the interpreter's own, and this module only
    decides what each item costs.  Threads advance in lockstep; in each
    cycle every runnable thread runs items until one costs the cycle or
    the thread blocks.

    {v
    what the item did                one cycle per        Scheduled
                                      assignment
    assignment, rhs not a receive    1                    0 if it packs, else
                                                          the turn ends (1) and
                                                          it runs next cycle
    for-step e                       1                    as an assignment if
                                                          e is one, else 0
    declaration with initialiser     1                    0; counts toward the
                                                          cap, never deferred
    send, or any receive form        1                    1
    delay                            1                    1
    anything else                    0                    0
    v}

    [`Scheduled] (Bach C's compiler-decided timing for concurrent
    programs) packs at most 8 operations per thread per cycle, and no
    assignment that reads or writes a variable written earlier in the
    cycle, or touches an array another packed operation read.  It reads
    each assignment's {!Interp.footprint}, built by the resolve pass.

    Budgets: 2,000,000 cycles ({!Timeout}); 100,000 items one thread may
    run in one cycle ({!Combinational_loop}, what the real compiler says
    of [while(e);]); and the oracle's own {!Interp.step_budget} of 10M
    steps, counted over the thread items and the statements of the
    big-step calls they make ({!Interp.Timeout}).
    {!run} takes no optional argument.

    The backend wrapper lives in {!Handelc}; {!Design.make} runs this
    machine for every statement-machine design. *)

exception Combinational_loop
exception Deadlock
exception Timeout

type policy = [ `One_cycle_per_assignment | `Scheduled ]

type outcome = {
  return_value : Bitvec.t option;
  cycles : int;
  store : Interp.store;
}

val run :
  policy:policy -> Interp.resolved -> entry:string -> args:Bitvec.t list ->
  outcome
(** Run the entry of a resolved program to completion.
    @raise Deadlock / Timeout / Combinational_loop as named,
    @raise Interp.Timeout when the step budget runs out (a callee that
    never returns),
    @raise Interp.Runtime_error on the machine's own faults (an exhausted
    stack, a wrong argument count). *)

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
