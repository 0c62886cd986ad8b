(** SystemC backend: schedule like Bach C, then simulate the FSMD as a
    clock-edge-triggered process network ({!Sc_kernel}).  Concurrent
    programs run on the statement machine. *)

val pipeline : Passes.pipeline
(** [lower; simplify]. *)

val compile : ?config:Config.t -> Ast.program -> entry:string -> Design.t

val descriptor : Backend.descriptor
