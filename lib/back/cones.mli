(** Cones backend [Stroud/Munoz/Pierce 1988]: symbolic execution of the
    (inlined) entry function into a pure combinational netlist.  Bounded
    loops unroll fully, conditionals (and early returns) if-convert into
    muxes, arrays become signal vectors with mux trees for dynamic
    indexing — the area-explosion behaviour experiment E5 measures. *)

exception Unsupported of string

val pipeline : Passes.pipeline
(** Source-only and empty: Cones symbolically executes the AST directly,
    unrolling loops itself. *)

val synthesize : Ast.program -> entry:string -> Netlist.t
(** The combinational netlist; scalar globals appear as [g_<name>]
    outputs.  @raise Unsupported / Failure outside the Cones dialect. *)

val compile : ?config:Config.t -> Ast.program -> entry:string -> Design.t

val descriptor : Backend.descriptor
