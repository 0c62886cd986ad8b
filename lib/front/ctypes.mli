(** C types for the CHLS frontend.

    The paper's data-type complaint made concrete: [ikind] has exactly
    the standard C widths (1/8/16/32/64); bit-accurate narrowing is
    recovered later by the bitwidth analysis (experiment E8). *)

type ikind = Bool | Char | Short | Int | Long

type t =
  | Void
  | Integer of { kind : ikind; signed : bool }
  | Pointer of t
  | Array of t * int
  | Function of { ret : t; params : t list }

val bool_t : t
val int_t : t
val uint_t : t
val long_t : t
val ulong_t : t

val is_integer : t -> bool
val is_pointer : t -> bool
val is_scalar : t -> bool

val pointer_width : int
(** Pointers are word addresses: 32 bits. *)

val width : t -> int
(** Width in bits of a value of this type (array: its element). *)

val is_signed : t -> bool

val word_count : t -> int
(** Words occupied in the word-addressed memory model (each scalar
    element = one word). *)

val promote : t -> t
(** Integer promotion: narrower than [int] promotes to [int]. *)

val arithmetic_conversion : t -> t -> t
(** Usual arithmetic conversions for two integer operands. *)

val decay : t -> t
(** Array-to-pointer decay in rvalue contexts. *)

val equal : t -> t -> bool
val to_string : t -> string
