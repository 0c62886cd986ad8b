(** The unboxed-int ALU of the compiled simulators.

    {!Netcomp}, [Fsmdcomp] and [C2vcomp] hold every value as an OCaml
    int: the masked, unsigned bit pattern of a [w]-bit word, [w] at most
    {!width_limit}.  This module is their one copy of the operator
    semantics, bit-identical to {!Bitvec} at those widths: division by
    zero follows the hardware-divider convention (quotient all ones,
    remainder the dividend), shifts at or beyond the width produce zero
    (sign bits for arithmetic right shifts). *)

val width_limit : int
(** 62: the widest word whose unsigned pattern is a non-negative
    int. *)

val masks : int array
(** [masks.(w)] is [(1 lsl w) - 1], for [w] in [0;width_limit]. *)

val sx : int -> int -> int
(** [sx v w]: the signed view of the [w]-bit pattern [v]. *)

val binop_index : Netlist.binop -> int
(** A dense index in [0;18], in {!Netlist.binop} order; C2Verilog's ROM
    also uses it as the ALU sub-opcode. *)

val binop : int -> int -> int -> int -> int
(** [binop k w a b] applies the operator of index [k] to the [w]-bit
    patterns [a] and [b] (a shift amount [b] may come from a word of any
    width).  Comparisons give 0 or 1; everything else a [w]-bit
    pattern. *)
