(** Word-level synchronous netlists: the common hardware substrate.

    A netlist is a graph of typed nodes (constants, inputs, operators,
    muxes, registers, memory ports) referenced by dense signal ids.
    Cones emits purely combinational netlists; the FSMD backends
    elaborate controller+datapath into one; the area model, Verilog
    emitter and evaluator all consume it.

    Builder discipline: combinational fan-in always references already-
    created signals, so signal id order is a topological order for
    combinational dependencies (the evaluator relies on it).  Only
    register next-state inputs and memory write ports may point forward,
    via the two-step [reg_forward]/[reg_connect] and [mem_write].

    The builder shares and folds.  A combinational node equal to one
    already built (same kind, same operands) is not made again: the
    builder returns the existing signal, so equal constants are one
    signal too.  An operator over constants is a constant, computed by
    the one operator table below, unless its operands' widths differ
    where Bitvec needs them equal (it raises [Width_mismatch]; a shift
    amount may have any width): that stays a node.  An extension or
    extraction of a constant is a constant; a mux with a constant
    select, or with both arms the same signal, is that arm.
    Inputs, registers and memory reads are never shared.  The sharing
    table is build-time state: {!finish} drops it. *)

type signal = int

type unop = U_not | U_neg | U_reduce_or

type binop =
  | B_add | B_sub | B_mul | B_udiv | B_urem | B_sdiv | B_srem
  | B_and | B_or | B_xor
  | B_shl | B_lshr | B_ashr
  | B_eq | B_ne | B_ult | B_ule | B_slt | B_sle

type node =
  | Const of Bitvec.t
  | Input of string
  | Unop of unop * signal
  | Binop of binop * signal * signal
  | Mux of { sel : signal; if_true : signal; if_false : signal }
  | Concat of { hi : signal; lo : signal }
  | Extract of { hi : int; lo : int; arg : signal }
  | Zext of { width : int; arg : signal }
  | Sext of { width : int; arg : signal }
  | Reg of { init : Bitvec.t; next : signal; enable : signal option }
  | Mem_read of { mem : int; addr : signal }

type mem = {
  mem_name : string;
  word_width : int;
  depth : int;
  mutable write_port : (signal * signal * signal) option;
      (** we, waddr, wdata — synchronous write; reads are combinational *)
  init : Bitvec.t array option;
}

type t

val create : ?name:string -> unit -> t
val length : t -> int
val node : t -> signal -> node
val width : t -> signal -> int
val name : t -> string

(** {1 Building} *)

val const : t -> Bitvec.t -> signal
val const_int : t -> width:int -> int -> signal
val input : t -> string -> width:int -> signal
val unop : t -> unop -> signal -> signal

val is_comparison : binop -> bool

val binop : t -> binop -> signal -> signal -> signal
(** Result width: 1 for comparisons, else the left operand's. *)

val mux : t -> sel:signal -> if_true:signal -> if_false:signal -> signal
val zext : t -> width:int -> signal -> signal

val resize : t -> signed:bool -> width:int -> signal -> signal
(** C conversion rules: truncate narrowing, extend per [signed]. *)

val reg_forward : t -> init:Bitvec.t -> signal
(** Allocate a register with its next-state unconnected (feedback). *)

val reg_connect : t -> signal -> next:signal -> ?enable:signal -> unit -> unit

val finish : t -> unit
(** Drop the sharing table and any spare capacity, so a finished netlist
    (a cached or stored design's) holds its nodes and nothing else.
    Building may go on: the next builder call re-indexes the nodes, so
    finishing never changes the signal a builder returns. *)

val add_mem :
  t -> name:string -> word_width:int -> depth:int ->
  ?init:Bitvec.t array -> unit -> int

val mem_read : t -> mem:int -> addr:signal -> signal

val mem_write : t -> mem:int -> we:signal -> addr:signal -> data:signal -> unit
(** Connect the (single) synchronous write port.
    @raise Invalid_argument if already connected. *)

val mems : t -> mem array

val set_output : t -> string -> signal -> unit
val outputs : t -> (string * signal) list
val inputs : t -> (string * signal) list

(** {1 Operator semantics} *)

val apply_unop : unop -> Bitvec.t -> Bitvec.t
val apply_binop : binop -> Bitvec.t -> Bitvec.t -> Bitvec.t
(** The one operator table: constant folding above, the netlist
    evaluator, the CIR machine, Fsmdcomp's width-mismatch path and the
    C2Verilog stack ALU all compute through it. *)

(** {1 Traversal} *)

val comb_deps : node -> signal list
(** Combinational fan-in (register nexts are sequential edges). *)

val sequential_deps : node -> signal list

val fanouts : t -> signal array array
(** Fanout index: [(fanouts t).(s)] lists the combinational users of [s]
    (register next-states and write ports excluded).  User ids are always
    strictly greater than [s], so id order is a valid event-processing
    order.  Computed once and cached; rebuilt automatically if nodes have
    been added since. *)

val num_registers : t -> int

val string_of_unop : unop -> string
val string_of_binop : binop -> string
