(** Pretty-printer for the CHLS AST: emits parseable source (used by the
    print/parse round-trip tests and diagnostics). *)

val pp_expr : Format.formatter -> Ast.expr -> unit
val pp_stmt : Format.formatter -> Ast.stmt -> unit
val pp_block : Format.formatter -> Ast.block -> unit
val pp_func : Format.formatter -> Ast.func -> unit
val pp_global : Format.formatter -> Ast.global -> unit
val pp_program : Format.formatter -> Ast.program -> unit

val program_to_string : Ast.program -> string
