(** Technology-independent area/delay model.

    Area is in gate equivalents (2-input NAND = 1) and delay in unit gate
    delays, following textbook operator structures (carry-lookahead
    adders, Wallace multipliers, barrel shifters, restoring dividers).
    The absolute numbers are not calibrated to a cell library; experiments
    rely on relative shape only (see DESIGN.md). *)

val log2_ceil : int -> int
(** Ceiling of log2; 0 for inputs <= 1. *)

val flog2 : int -> float
(** [float_of_int (log2_ceil n)], a convenience for delay formulas. *)

type cost = { area : float; delay : float }

val unop_cost : Netlist.unop -> int -> cost
(** Cost of a unary operator at a given operand width. *)

val binop_cost : Netlist.binop -> int -> cost
(** Cost of a binary operator at a given operand width. *)

type report = {
  combinational_area : float;
  register_area : float;
  memory_bits : int;
  memory_area : float;
  total_area : float;
  critical_path : float; (** longest register-to-register comb delay *)
  num_nodes : int;
  num_registers : int;
}

val analyze : Netlist.t -> report
(** Static area/timing report.  The critical path is the longest
    combinational delay between sequential endpoints (registers, memory
    ports, primary inputs/outputs). *)

val pp_report : Format.formatter -> report -> unit
