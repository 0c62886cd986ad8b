(** Type checker / elaborator.

    Checks a parsed program and returns an elaborated copy in which every
    expression carries its type and every implicit C conversion (integer
    promotion, usual arithmetic conversion, assignment conversion) has
    been made explicit as a [Cast] node — conversion *to* [bool] is
    desugared to an explicit [!= 0] per C11 _Bool semantics.  Downstream
    lowering can then translate operators width-for-width. *)

exception Error of string * Ast.loc

val parse_and_check : string -> Ast.program
(** Convenience: parse then check. *)
