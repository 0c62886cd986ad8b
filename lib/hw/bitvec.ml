(* Fixed-width two's-complement bit vectors, 1..64 bits, backed by int64.

   This is the single runtime value type shared by the reference C
   interpreter, the cycle-accurate RTL simulator, the asynchronous dataflow
   simulator and the netlist evaluator, so that cross-simulator equivalence
   tests compare like with like.

   Convention: [bits] always holds the value zero-extended to 64 bits
   (i.e. masked to [width]); signed operations sign-extend internally. *)

type t = { width : int; bits : int64 }

exception Width_mismatch of string

let max_width = 64

let mask_of_width w =
  if w >= 64 then -1L else Int64.sub (Int64.shift_left 1L w) 1L

(** [make ~width n] truncates [n] to [width] bits. *)
let make ~width bits =
  if width < 1 || width > max_width then
    invalid_arg (Printf.sprintf "Bitvec.make: width %d out of [1;64]" width);
  { width; bits = Int64.logand bits (mask_of_width width) }

let width t = t.width
let to_int64_unsigned t = t.bits

(** Value with the sign bit extended to the full int64. *)
let to_int64_signed t =
  if t.width = 64 then t.bits
  else
    let shift = 64 - t.width in
    Int64.shift_right (Int64.shift_left t.bits shift) shift

let to_int t = Int64.to_int (to_int64_signed t)
let to_int_unsigned t = Int64.to_int t.bits
let of_int ~width n = make ~width (Int64.of_int n)
let of_int64 ~width n = make ~width n
let of_bool b = make ~width:1 (if b then 1L else 0L)

(* One zero per width, built once.  A value that has outlived a minor
   collection lives in the major heap, so an array over 256 words made
   from one of these is filled in place: filled from a fresh value,
   OCaml 5 first runs a minor collection, which stops every domain. *)
let zeros = Array.init max_width (fun i -> make ~width:(i + 1) 0L)

let zero width =
  if width >= 1 && width <= max_width then zeros.(width - 1)
  else make ~width 0L

let init_array n f =
  let a = Array.make n zeros.(0) in
  for i = 0 to n - 1 do
    a.(i) <- f i
  done;
  a
let one width = make ~width 1L
let ones width = make ~width (-1L)
let is_zero t = Int64.equal t.bits 0L
let to_bool t = not (is_zero t)

let equal a b = a.width = b.width && Int64.equal a.bits b.bits

let same_width op a b =
  if a.width <> b.width then
    raise
      (Width_mismatch
         (Printf.sprintf "%s: %d-bit vs %d-bit" op a.width b.width))

let lift2 op name a b =
  same_width name a b;
  make ~width:a.width (op a.bits b.bits)

let add a b = lift2 Int64.add "add" a b
let sub a b = lift2 Int64.sub "sub" a b
let mul a b = lift2 Int64.mul "mul" a b
let logand a b = lift2 Int64.logand "and" a b
let logor a b = lift2 Int64.logor "or" a b
let logxor a b = lift2 Int64.logxor "xor" a b
let lognot a = make ~width:a.width (Int64.lognot a.bits)
let neg a = make ~width:a.width (Int64.neg a.bits)

(* Division by zero follows the usual hardware divider convention
   (quotient all-ones, remainder = dividend) rather than trapping, so the
   interpreter and every simulator agree on a total semantics. *)
let sdiv a b =
  same_width "sdiv" a b;
  if is_zero b then ones a.width
  else
    let x = to_int64_signed a and y = to_int64_signed b in
    if Int64.equal x Int64.min_int && Int64.equal y (-1L) then
      make ~width:a.width Int64.min_int
    else make ~width:a.width (Int64.div x y)

let srem a b =
  same_width "srem" a b;
  if is_zero b then a
  else
    let x = to_int64_signed a and y = to_int64_signed b in
    if Int64.equal x Int64.min_int && Int64.equal y (-1L) then zero a.width
    else make ~width:a.width (Int64.rem x y)

let udiv a b =
  same_width "udiv" a b;
  if is_zero b then ones a.width
  else make ~width:a.width (Int64.unsigned_div a.bits b.bits)

let urem a b =
  same_width "urem" a b;
  if is_zero b then a
  else make ~width:a.width (Int64.unsigned_rem a.bits b.bits)

(* Shift amounts >= width yield 0 (or all-sign-bits for arithmetic right),
   matching Verilog semantics for sized shifts. *)
let shl a b =
  let n = Int64.to_int b.bits in
  if n < 0 || n >= a.width then zero a.width
  else make ~width:a.width (Int64.shift_left a.bits n)

let lshr a b =
  let n = Int64.to_int b.bits in
  if n < 0 || n >= a.width then zero a.width
  else make ~width:a.width (Int64.shift_right_logical a.bits n)

let ashr a b =
  let n = Int64.to_int b.bits in
  let n = if n < 0 || n >= a.width then a.width - 1 else n in
  make ~width:a.width (Int64.shift_right (to_int64_signed a) n)

let ult a b =
  same_width "ult" a b;
  Int64.unsigned_compare a.bits b.bits < 0

let ule a b =
  same_width "ule" a b;
  Int64.unsigned_compare a.bits b.bits <= 0

let slt a b =
  same_width "slt" a b;
  Int64.compare (to_int64_signed a) (to_int64_signed b) < 0

let sle a b =
  same_width "sle" a b;
  Int64.compare (to_int64_signed a) (to_int64_signed b) <= 0

(** [extract ~hi ~lo t] selects bits [hi..lo] inclusive. *)
let extract ~hi ~lo t =
  if lo < 0 || hi >= t.width || hi < lo then
    invalid_arg
      (Printf.sprintf "Bitvec.extract [%d:%d] of %d-bit" hi lo t.width);
  make ~width:(hi - lo + 1) (Int64.shift_right_logical t.bits lo)

let bit i t = to_bool (extract ~hi:i ~lo:i t)

(** [concat hi lo] places [hi] in the upper bits. *)
let concat hi lo =
  let width = hi.width + lo.width in
  if width > max_width then
    invalid_arg (Printf.sprintf "Bitvec.concat: width %d > 64" width);
  make ~width (Int64.logor (Int64.shift_left hi.bits lo.width) lo.bits)

let zero_extend ~width t =
  if width < t.width then invalid_arg "Bitvec.zero_extend: narrowing";
  make ~width t.bits

let sign_extend ~width t =
  if width < t.width then invalid_arg "Bitvec.sign_extend: narrowing";
  make ~width (to_int64_signed t)

(** Resize with C conversion semantics: truncate when narrowing, extend
    according to [signed] (the signedness of the source) when widening. *)
let resize ~signed ~width t =
  if width = t.width then t
  else if width < t.width then make ~width t.bits
  else if signed then sign_extend ~width t
  else zero_extend ~width t

let popcount t =
  let rec go acc bits =
    if Int64.equal bits 0L then acc
    else go (acc + 1) (Int64.logand bits (Int64.sub bits 1L))
  in
  go 0 t.bits

(** Number of bits needed to represent [t] as an unsigned value (>= 1). *)
let significant_bits t =
  let rec go n = if n <= 1 then 1 else if bit (n - 1) t then n else go (n - 1) in
  go t.width

let to_string t = Printf.sprintf "%d'd%Lu" t.width t.bits
let pp fmt t = Format.pp_print_string fmt (to_string t)
