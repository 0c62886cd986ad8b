(** The C2Verilog execution engine: a word stack machine (code ROM + one
    unified RAM + small datapath) simulated cycle-by-cycle under the
    backend's rule set, over [Bitvec.t] words.  The backend wrapper is
    {!C2v_backend}.  {!C2vcomp} runs the same machine over unboxed ints;
    this one is its differential oracle ([--sim event]).

    Memory map: globals in [0, stack_base), the combined evaluation/call
    stack in [stack_base, heap_base) growing up, the malloc heap above.
    Every stored word is masked to its C type's width. *)

exception Runtime_error of string
exception Timeout

type outcome = {
  return_value : Bitvec.t option;
  cycles : int;
  instructions_executed : int;
  globals : (string * Bitvec.t) list;
  memories : (string * Bitvec.t array) list;
}

val observe :
  C2verilog.compiled -> word:(int -> int -> Bitvec.t) ->
  (string * Bitvec.t) list * (string * Bitvec.t array) list
(** The scalar globals and the global arrays after a run, each word read
    through [word address width]. *)

val max_cycles : int
(** 50,000,000: a run's cycle budget, unless [run] is given another. *)

val run :
  ?max_cycles:int -> C2verilog.compiled -> ret_width:int ->
  args:Bitvec.t list -> outcome
(** Boot protocol: arguments then a return pc beyond the code; execution
    ends when the entry function returns there.
    @raise Runtime_error on stack overflow or underflow, a load, store
    or frame pointer outside memory (negative addresses included), heap
    exhaustion,
    @raise Timeout past [max_cycles]. *)
