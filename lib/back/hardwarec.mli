(** HardwareC backend [Ku & De Micheli 1990]: the scheduled-FSMD path
    plus [constrain(min,max){...}] timing constraints.  If the requested
    allocation violates a max-cycle constraint, the compiler walks the
    allocation lattice until the constraints hold (experiment E7's
    design-space exploration); min-cycle constraints pad empty states. *)

exception Unsatisfiable of string

type report = {
  statuses : Constrain.status list;  (** final constraint status *)
  exploration : (string * int * bool) list;
      (** (allocation, steps, met?) trail *)
  chosen_allocation : string;
}

val compile :
  ?config:Config.t -> Ast.program -> entry:string -> Design.t * report
(** @raise Unsatisfiable when no candidate allocation meets a constraint. *)

val descriptor : Backend.descriptor
