(** Handel-C backend [Celoxica] — and the concurrent Bach C variant.

    Produces {!Design.Statement_machine} designs, run by
    {!Handel_machine}.  Sequential programs additionally carry their
    lowered function as a structural view — an FSMD cut at assignment
    boundaries, elaborated to a netlist — behind
    [Design.area]/[Design.verilog]. *)

val uses_concurrency : Ast.program -> bool
(** Any [par] arm or channel operation anywhere in the program — the
    constructs only the statement machine executes.  Backends whose
    dialect allows them route such programs here instead of their
    scheduled-FSMD path. *)

val compile_with_policy :
  backend_name:string -> dialect:Dialect.t -> policy:Handel_machine.policy ->
  ?config:Config.t -> Ast.program -> entry:string -> Design.t
(** [config] (default {!Config.default}) supplies the per-compile
    pass options and the unroll factor; the statement machine runs the
    transformed program.  When the sequential structural view cannot be
    lowered, the reason appears as a ["structural view"] diagnostic in
    the design's stats. *)

val compile : ?config:Config.t -> Ast.program -> entry:string -> Design.t
(** The Handel-C rule: one cycle per assignment. *)

val descriptor : Backend.descriptor
