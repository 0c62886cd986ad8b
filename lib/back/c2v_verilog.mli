(** Verilog emission for the C2Verilog stack machine: a synthesizable
    processor module — fetch/execute FSM, PC/SP/FP/HP registers, unified
    RAM, and a code ROM initialized with the compiled program.  The
    simulator ({!C2v_machine}) remains the timing reference; this is the
    "translated into Verilog" artifact the original tool produced. *)

val to_string : C2verilog.compiled -> name:string -> string
