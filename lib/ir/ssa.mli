(** Pruned SSA construction over CIR (Cytron-style: phi insertion at
    iterated dominance frontiers filtered by liveness, renaming down the
    dominator tree).

    The result keeps the block structure but rewrites instructions over
    single-assignment registers, with phi nodes attached per block.  The
    CASH backend builds its dataflow circuit from this form (phis at loop
    headers become merge/mu nodes).  This module has no evaluator: Asim
    runs the SSA form on {!Cir_interp}'s machine, and a phi takes the
    value of the edge control arrived on. *)

type phi = {
  p_dst : Cir.reg;
  p_width : int;
  p_srcs : (int * Cir.operand) list;
      (** predecessor block -> value; at the entry block, edge [-1] is
          the call and carries the original register *)
}

type t = {
  func : Cir.func;  (** renamed body; registers are SSA names *)
  phis : phi list array;  (** phi nodes per block *)
  cfg : Cfg.t;  (** CFG of the original function (same shape) *)
  ssa_of_param : (string * Cir.reg) list;
}

val of_func : Cir.func -> t
(** Convert to pruned SSA.  Parameters and globals keep their original
    registers as their first definition; when the entry block is a loop
    header, its phis read them on the call edge. *)

val verify : t -> Cir.reg list
(** Registers violating single assignment (empty = valid). *)
