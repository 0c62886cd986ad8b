(** HardwareC-style min/max timing constraints — experiment E7.

    A constraint covers a contiguous instruction range of one basic block
    (lowering enforces the straight-line shape) and demands the range
    occupy between [min_cycles] and [max_cycles] control steps. *)

type t = {
  block : int;
  first : int;  (** first instruction index within the block *)
  last : int;
  min_cycles : int;
  max_cycles : int;
}

val of_lowering : (int * int * int * int * int) list -> t list
(** From [Lower.result.constraints]. *)

type status = {
  constraint_ : t;
  actual_cycles : int;
  satisfied : bool;
  slack : int;  (** max_cycles - actual; negative = violated *)
}

val check : t list -> block:int -> Schedule.schedule -> status list
(** The constraints applying to [block], evaluated on its schedule. *)

val explore :
  Cir.func -> t list -> block:int -> Cir.instr list ->
  (string * Schedule.resources) option * (string * int * bool) list
(** Walk a ladder of allocations (cheapest first) until the block's max
    constraints hold; returns the chosen allocation and the exploration
    trail (label, steps, met?). *)
