(** Lowering: elaborated AST -> CIR.

    All function calls are inlined (the scheduled backends target
    dialects without recursion; recursion hits the depth bound and is
    reported).  Scalar locals/globals become virtual registers; every
    array becomes its own memory region (the partitioned-memory model).
    Pointer operations are rejected — the C2Verilog stack machine is the
    pointer-capable path.

    Conventions relied on downstream: [T_branch] is taken when nonzero;
    comparisons produce 1-bit values immediately widened by an [I_cast];
    locals without initializers read as zero. *)

exception Error of string * Ast.loc
(** The location is the AST node that could not be lowered ([Ast.no_loc]
    when the failure has no single source point, e.g. a missing entry
    function), so drivers can print [file:line:col] diagnostics. *)

val expr_pure : Ast.expr -> bool
(** No assignments, calls, or channel operations anywhere inside. *)

type result = {
  func : Cir.func;
  constraints : (int * int * int * int * int) list;
      (** HardwareC ranges: block, first and last instruction index,
          min cycles, max cycles (see Constrain.of_lowering) *)
}

val lower_program : Ast.program -> entry:string -> result
(** Lower the entry function of a type-checked program.
    @raise Error on pointers, channels/par, recursion, or non-scalar
    entry parameters. *)
