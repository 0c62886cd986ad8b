(** Pretty-printer for the CHLS AST: emits parseable source (used by the
    print/parse round-trip tests and diagnostics). *)

val program_to_string : Ast.program -> string
