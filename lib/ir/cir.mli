(** CIR: the sequential three-address intermediate representation.

    A function is a CFG of basic blocks over virtual registers (each with
    a bit width) and memory regions (one per array — the partitioned-
    memory model).  Calls are already inlined; channels/par live outside
    CIR.  The operator vocabulary is shared with the netlist layer so
    every evaluator computes identically. *)

type reg = int

type operand = O_reg of reg | O_imm of Bitvec.t

type instr =
  | I_bin of { op : Netlist.binop; dst : reg; a : operand; b : operand }
  | I_un of { op : Netlist.unop; dst : reg; a : operand }
  | I_mov of { dst : reg; src : operand }
  | I_cast of { dst : reg; signed : bool; src : operand }
      (** resize [src] (source signedness) to the width of [dst] *)
  | I_mux of { dst : reg; sel : operand; if_true : operand; if_false : operand }
  | I_load of { dst : reg; region : int; addr : operand }
  | I_store of { region : int; addr : operand; value : operand }

type terminator =
  | T_jump of int
  | T_branch of { cond : operand; if_true : int; if_false : int }
      (** taken when the operand is nonzero *)
  | T_return of operand option

type block = {
  b_id : int;
  mutable instrs : instr list;
  mutable term : terminator;
}

type region = {
  rg_name : string;
  rg_words : int;
  rg_width : int;
  rg_init : Bitvec.t array option;
}

type func = {
  fn_name : string;
  fn_params : (string * reg) list;
  fn_ret_width : int;  (** 0 for void *)
  mutable fn_blocks : block array;
  fn_entry : int;
  mutable fn_reg_widths : int array;
  mutable fn_reg_count : int;
  fn_regions : region array;
  fn_globals : (string * reg * Bitvec.t) list;
      (** scalar globals promoted to registers: initialized before entry,
          observable after return *)
}

val reg_width : func -> reg -> int
val num_blocks : func -> int
val block : func -> int -> block
val operand_width : func -> operand -> int

val def_of : instr -> reg option
val uses_of : instr -> reg list
val uses_of_terminator : terminator -> reg list

val memory_access : instr -> (int * [ `Read | `Write ]) option
val successors : block -> int list

val to_string : func -> string

val num_instrs : func -> int
