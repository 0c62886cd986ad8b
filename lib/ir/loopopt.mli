(** Source-level loop transformations (AST -> AST): the "recoding" the
    paper says implicit-clocking languages force on designers.
    Transmogrifier C charges a cycle per loop iteration, so timing may
    need loops unrolled; Handel-C charges a cycle per assignment, so
    temporaries may need fusing.  Experiment E4 measures both. *)

exception Not_unrollable of string

val partially_unroll_for :
  factor:int -> init:Ast.stmt option -> cond:Ast.expr option ->
  step:Ast.expr option -> body:Ast.block -> Ast.stmt
(** Replicate the body [factor] times with induction offsets; the trip
    count must divide by [factor].  @raise Not_unrollable otherwise. *)

val unroll_all_program : Ast.program -> Ast.program
(** Fully unroll every bounded for loop, innermost first; loops that
    cannot unroll are left in place. *)

val unroll_factor_program : factor:int -> Ast.program -> Ast.program
(** Partially unroll every bounded for loop by [factor] (innermost
    first).  Loops that cannot unroll — non-static bounds,
    break/continue, trip count not divisible by [factor] — are left in
    place, so the transform never fails; [factor < 2] is the identity.
    This is the unroll knob {!Passes.unroll_factor_pass} and the explore
    grid expose. *)

val fuse_program : Ast.program -> Ast.program
(** Fuse single-use pure temporaries into their immediately following
    consumer (`int t = a+b; x = t*c;` becomes `x = (a+b)*c;`) — only when
    nothing can intervene between definition and use, so the classic
    swap pattern is left alone.  Semantics-preserving (tested). *)
