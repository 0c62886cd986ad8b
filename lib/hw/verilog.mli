(** Verilog-2001 emission from a netlist: one synthesizable module per
    netlist, with a [clk] input, wires per signal, registers with reset
    initializers, and memories as reg arrays with synchronous writes. *)

val sanitize : string -> string
(** Make a name Verilog-identifier-safe. *)

val bv_literal : Bitvec.t -> string
(** Sized hex literal, e.g. [8'hff]. *)

val to_string : Netlist.t -> string
(** Render the complete module. *)
