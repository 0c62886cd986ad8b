(** The C2Verilog backend: compile to stack code ({!C2verilog}) and
    return a {!Design.Stack_machine} design, run by {!C2v_machine}; its
    Verilog view is the generated processor ({!C2v_verilog}). *)

val compile : ?config:Config.t -> Ast.program -> entry:string -> Design.t

val descriptor : Backend.descriptor
