(** C2Verilog backend [Soderman & Panchul 1998], part 1: the compiler.

    "Truly broad support for ANSI C" — pointers into one address space,
    recursion, malloc — pushes the hardware toward a processor shape:
    this module compiles the whole program to a word stack machine (the
    simulator lives in {!C2v_machine}, the backend wrapper in
    {!C2v_backend}, the processor's Verilog in {!C2v_verilog}). *)

exception Compile_error of string

type instr =
  | Push of int64
  | Push_global_addr of int  (** absolute word address *)
  | Push_frame_addr of int  (** FP + offset *)
  | Load  (** pop addr, push mem[addr] *)
  | Store  (** pop value, pop addr *)
  | Bin of Netlist.binop * int  (** operate then truncate to width *)
  | Un of Netlist.unop * int
  | Cast of { signed : bool; from_width : int; to_width : int }
  | Dup
  | Drop
  | Jump of int
  | Jump_if_zero of int
  | Call of int * int  (** target pc, argument words *)
  | Enter of int  (** allocate local words, save FP *)
  | Ret of { args : int; has_value : bool }
  | Alloc  (** pop word count, push heap address (malloc) *)
  | Halt of { has_value : bool }

val cycles_of_instr : instr -> int
(** The backend's rule-based cycle costs: memory 2, multiply 2,
    divide 8, everything else 1-2. *)

type var_binding = { offset : int; is_global : bool; ty : Ctypes.t }

type compiled = {
  code : instr array;
  entry_pc : int;
  entry_args : int;
  memory_words : int;
  initial_memory : (int * Bitvec.t) list;
  globals_layout : (string, var_binding) Hashtbl.t;
  stack_base : int;
  heap_base : int;
}

val compile_program : Ast.program -> entry:string -> compiled
(** Compile every function; calls are patched, Gt/Ge normalized to
    swapped Lt/Le.  @raise Compile_error on unsupported constructs
    (channels, par). *)
