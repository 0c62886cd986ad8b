(** Fixed-width two's-complement bit vectors, 1..64 bits.

    This is the single runtime value type shared by the reference C
    interpreter, the cycle-accurate RTL simulator, the asynchronous
    dataflow simulator and the netlist evaluator, so cross-simulator
    equivalence tests compare like with like.

    Total semantics: division by zero follows the hardware-divider
    convention (quotient all ones, remainder = dividend); shifts by
    amounts at or beyond the width produce zero (sign bits for arithmetic
    right shifts), matching Verilog's sized-shift behaviour. *)

type t

exception Width_mismatch of string
(** Raised by binary operations on operands of different widths. *)

(** {1 Construction} *)

val make : width:int -> int64 -> t
(** [make ~width bits] truncates [bits] to [width] bits.
    @raise Invalid_argument if [width] is outside [1;64]. *)

val of_int : width:int -> int -> t
val of_int64 : width:int -> int64 -> t

val of_bool : bool -> t
(** 1-bit 0 or 1. *)

val zero : int -> t
(** One shared value per width, so a large array filled with it is not
    filled from a freshly allocated value (which makes OCaml 5 force a
    minor collection first). *)

val init_array : int -> (int -> t) -> t array
(** [Array.init] for vectors, without that forced collection: the array
    is made from a shared zero, then filled. *)

val one : int -> t

val ones : int -> t
(** All bits set. *)

(** {1 Observation} *)

val width : t -> int

val to_int64_unsigned : t -> int64
(** The value zero-extended to 64 bits. *)

val to_int64_signed : t -> int64
(** The value with its sign bit extended to 64 bits. *)

val to_int : t -> int
(** Signed view as an OCaml int. *)

val to_int_unsigned : t -> int
(** Unsigned view as an OCaml int (beware widths near 63). *)

val is_zero : t -> bool
val to_bool : t -> bool

val equal : t -> t -> bool
(** Same width and same bits. *)

(** {1 Arithmetic and logic} — operands must share a width. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val sdiv : t -> t -> t
val srem : t -> t -> t
val udiv : t -> t -> t
val urem : t -> t -> t
val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val lognot : t -> t
val neg : t -> t

(** {1 Shifts} — the amount may have any width. *)

val shl : t -> t -> t
val lshr : t -> t -> t
val ashr : t -> t -> t

(** {1 Comparisons} — operands must share a width. *)

val ult : t -> t -> bool
val ule : t -> t -> bool
val slt : t -> t -> bool
val sle : t -> t -> bool

(** {1 Structure} *)

val extract : hi:int -> lo:int -> t -> t
(** Bits [hi..lo] inclusive. *)

val bit : int -> t -> bool

val concat : t -> t -> t
(** [concat hi lo]: [hi] in the upper bits.  Total width must fit 64. *)

val zero_extend : width:int -> t -> t
val sign_extend : width:int -> t -> t

val resize : signed:bool -> width:int -> t -> t
(** C conversion semantics: truncate when narrowing; extend according to
    [signed] (the signedness of the source) when widening. *)

val popcount : t -> int

val significant_bits : t -> int
(** Bits needed to represent the value as unsigned (at least 1). *)

(** {1 Printing} *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
