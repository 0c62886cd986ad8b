(** HardwareC backend [Ku & De Micheli 1990]: the scheduled-FSMD path
    plus [constrain(min,max){...}] timing constraints.  If the requested
    allocation violates a max-cycle constraint, the compiler walks the
    allocation lattice until the constraints hold (experiment E7's
    design-space exploration); min-cycle constraints pad empty states. *)

exception Unsatisfiable of string

val dialect : Dialect.t

val pipeline : Passes.pipeline
(** [lower] only: timing constraints name raw block/instruction indices,
    which CFG simplification would invalidate. *)

type report = {
  statuses : Constrain.status list;  (** final constraint status *)
  exploration : (string * int * bool) list;
      (** (allocation, steps, met?) trail *)
  chosen_allocation : string;
}

val compile :
  ?config:Config.t -> Ast.program -> entry:string -> Design.t * report
(** @raise Unsatisfiable when no candidate allocation meets a constraint. *)

val compile_reporting :
  ?config:Config.t -> Ast.program -> entry:string -> Design.t
(** {!compile} with the exploration {!report} folded into the design's
    stats ([constraint-status], [constraint-exploration]) instead of
    discarded — what the registry registers. *)

val descriptor : Backend.descriptor
