(* The unboxed-int ALU shared by the compiled simulators (Netcomp,
   Fsmdcomp, C2vcomp).  Values are masked unsigned bit patterns of at
   most 62 bits, so each is a non-negative int and unsigned division and
   comparison work on it directly; a sum, difference or product may wrap
   the int, but only above the bits the result mask keeps.  Signed
   operators look through [sx]. *)

let width_limit = 62

let masks = Array.init (width_limit + 1) (fun w -> (1 lsl w) - 1)

let[@inline] sx v w = (v lsl (Sys.int_size - w)) asr (Sys.int_size - w)

let binop_index : Netlist.binop -> int = function
  | B_add -> 0 | B_sub -> 1 | B_mul -> 2 | B_udiv -> 3 | B_urem -> 4
  | B_sdiv -> 5 | B_srem -> 6 | B_and -> 7 | B_or -> 8 | B_xor -> 9
  | B_shl -> 10 | B_lshr -> 11 | B_ashr -> 12 | B_eq -> 13 | B_ne -> 14
  | B_ult -> 15 | B_ule -> 16 | B_slt -> 17 | B_sle -> 18

(* The inline attribute takes effect where the build inlines across
   modules (dune's release profile); under the dev profile's -opaque
   every use is a call. *)
let[@inline] binop k w a b =
  match k with
  | 0 (* add *) -> (a + b) land masks.(w)
  | 1 (* sub *) -> (a - b) land masks.(w)
  | 2 (* mul *) -> a * b land masks.(w)
  | 3 (* udiv *) -> if b = 0 then masks.(w) else a / b
  | 4 (* urem *) -> if b = 0 then a else a mod b
  | 5 (* sdiv *) -> if b = 0 then masks.(w) else sx a w / sx b w land masks.(w)
  | 6 (* srem *) -> if b = 0 then a else sx a w mod sx b w land masks.(w)
  | 7 (* and *) -> a land b
  | 8 (* or *) -> a lor b
  | 9 (* xor *) -> a lxor b
  | 10 (* shl *) -> if b >= w then 0 else a lsl b land masks.(w)
  | 11 (* lshr *) -> if b >= w then 0 else a lsr b
  | 12 (* ashr *) -> sx a w asr (if b > w - 1 then w - 1 else b) land masks.(w)
  | 13 (* eq *) -> if a = b then 1 else 0
  | 14 (* ne *) -> if a <> b then 1 else 0
  | 15 (* ult *) -> if a < b then 1 else 0
  | 16 (* ule *) -> if a <= b then 1 else 0
  | 17 (* slt *) -> if sx a w < sx b w then 1 else 0
  | _ (* sle *) -> if sx a w <= sx b w then 1 else 0
