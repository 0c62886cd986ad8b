(** The C2Verilog execution engine: a word stack machine (code ROM + one
    unified RAM + small datapath) simulated cycle-by-cycle under the
    backend's rule set.  The backend wrapper is {!C2v_backend}.

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

val run :
  ?max_cycles:int -> C2verilog.compiled -> ret_width:int ->
  args:Bitvec.t list -> outcome
(** Boot protocol: arguments then a return pc beyond the code; execution
    ends when the entry function returns there.
    @raise Runtime_error on stack overflow / wild access,
    @raise Timeout past [max_cycles]. *)
