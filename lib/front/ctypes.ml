(* C types for the CHLS frontend.

   The paper's point about data types: C offers exactly four integer sizes
   tied to the PDP-11's word sizes, while hardware wants arbitrary bit
   vectors.  We model the C side faithfully here ([ikind] has the standard
   widths); bit-accurate narrowing is recovered later by the bitwidth
   analysis (lib/ir/bitwidth.ml), which is experiment E8. *)

type ikind = Bool | Char | Short | Int | Long

let width_of_ikind = function
  | Bool -> 1
  | Char -> 8
  | Short -> 16
  | Int -> 32
  | Long -> 64

let rank_of_ikind = function
  | Bool -> 0 | Char -> 1 | Short -> 2 | Int -> 3 | Long -> 4

type t =
  | Void
  | Integer of { kind : ikind; signed : bool }
  | Pointer of t
  | Array of t * int
  | Function of { ret : t; params : t list }

let bool_t = Integer { kind = Bool; signed = false }
let int_t = Integer { kind = Int; signed = true }
let uint_t = Integer { kind = Int; signed = false }
let long_t = Integer { kind = Long; signed = true }
let ulong_t = Integer { kind = Long; signed = false }

let is_integer = function
  | Integer _ -> true
  | Void | Pointer _ | Array _ | Function _ -> false

let is_pointer = function
  | Pointer _ -> true
  | Void | Integer _ | Array _ | Function _ -> false

let is_scalar t = is_integer t || is_pointer t

(** Width in bits of a value of this type (pointers are word addresses). *)
let pointer_width = 32

let rec width = function
  | Void -> 0
  | Integer { kind; _ } -> width_of_ikind kind
  | Pointer _ -> pointer_width
  | Array (elt, _) -> width elt
  | Function _ -> 0

let is_signed = function
  | Integer { signed; _ } -> signed
  | Void | Pointer _ | Array _ | Function _ -> false

(** Number of words a variable of this type occupies in the word-addressed
    memory model (each scalar element = one word). *)
let rec word_count = function
  | Void | Function _ -> 0
  | Integer _ | Pointer _ -> 1
  | Array (elt, n) -> n * word_count elt

(** Integer promotion: everything narrower than int promotes to int. *)
let promote = function
  | Integer { kind; _ } when rank_of_ikind kind < rank_of_ikind Int -> int_t
  | t -> t

(** Usual arithmetic conversions for two promoted integer operands. *)
let arithmetic_conversion a b =
  match (promote a, promote b) with
  | Integer ia, Integer ib ->
    let ra = rank_of_ikind ia.kind and rb = rank_of_ikind ib.kind in
    if ra = rb then Integer { kind = ia.kind; signed = ia.signed && ib.signed }
    else if ra > rb then Integer ia
    else Integer ib
  | (Void | Pointer _ | Array _ | Function _), _
  | _, (Void | Pointer _ | Array _ | Function _) ->
    invalid_arg "Ctypes.arithmetic_conversion: non-integer operand"

(** Array-to-pointer decay in rvalue contexts. *)
let decay = function Array (elt, _) -> Pointer elt | t -> t

let equal (a : t) (b : t) = a = b

let rec to_string = function
  | Void -> "void"
  | Integer { kind; signed } ->
    let base =
      match kind with
      | Bool -> "bool" | Char -> "char" | Short -> "short" | Int -> "int"
      | Long -> "long"
    in
    if signed || kind = Bool then base else "unsigned " ^ base
  | Pointer t -> to_string t ^ "*"
  | Array (t, n) -> Printf.sprintf "%s[%d]" (to_string t) n
  | Function { ret; params } ->
    Printf.sprintf "%s(%s)" (to_string ret)
      (String.concat ", " (List.map to_string params))
