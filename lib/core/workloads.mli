(** The built-in workload suite: DSP loops, control-dominated algorithms,
    bit manipulation, streaming process networks, and the thorny-C cases
    only C2Verilog accepts.  Tests and experiments share these kernels so
    every measurement has one ground truth. *)

type category =
  | Regular_loop  (** data-independent trip counts, pipelineable *)
  | Irregular  (** data-dependent control *)
  | Bit_twiddling
  | Concurrent  (** par / channels *)
  | Thorny_c  (** pointers, recursion, malloc *)

type t = {
  name : string;
  source : string;
  entry : string;
  arg_sets : int list list;  (** representative argument vectors *)
  category : category;
  description : string;
}

val gcd : t
val fib : t
val fir : t
val dotprod : t
val matmul : t
val bsort : t
val crc : t
val checksum : t
val histogram : t
val isqrt_newton : t
val transpose : t
val producer_consumer : t
val pointer_sum : t
val recursion : t

val sequential : t list
(** Accepted by every sequential backend. *)

val combinational : t list
(** The bounded-loop, pointer-free subset Cones accepts. *)

val concurrent : t list
val thorny : t list
val all : t list

val find : string -> t option

val reference : t -> int list -> int
(** Result from the software oracle. *)

val parse : t -> Ast.program
(** Parse and type-check the workload's source. *)
