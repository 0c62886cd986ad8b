(** Cones backend [Stroud/Munoz/Pierce 1988]: symbolic execution of the
    (inlined) entry function into a pure combinational netlist.  Bounded
    loops unroll fully, conditionals (and early returns) if-convert into
    muxes, arrays become signal vectors with mux trees for dynamic
    indexing — the area-explosion behaviour experiment E5 measures. *)

exception Unsupported of string

val compile : ?config:Config.t -> Ast.program -> entry:string -> Design.t

val descriptor : Backend.descriptor
