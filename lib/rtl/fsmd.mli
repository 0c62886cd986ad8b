(** FSM + datapath: the common target of the synchronous backends.

    Each state executes CIR instructions (original order; same-state RAW
    chains are wires) and then transfers control.  The scheduling policy
    passed to [of_func] is exactly where the surveyed languages differ:
    one state per block (Transmogrifier C), list-scheduled steps
    (Bach C / Cyber / SystemC / HardwareC), one state per assignment
    (Handel-C's structural view), or one state per instruction. *)

type next =
  | N_goto of int
  | N_branch of { cond : Cir.operand; if_true : int; if_false : int }
  | N_halt of Cir.operand option  (** done; the result value *)

type state = {
  st_id : int;
  actions : Cir.instr list;  (** original order within the state *)
  next : next;
  delay : float;  (** estimated combinational delay *)
}

type t = {
  fd_name : string;
  func : Cir.func;  (** register widths, regions, globals *)
  states : state array;
  entry : int;
  mem_forwarding : bool;  (** stores visible to same-state loads *)
}

val num_states : t -> int

val critical_state_delay : t -> float
(** The clock period this design requires. *)

val of_func :
  ?mem_forwarding:bool -> Cir.func ->
  schedule_block:(Cir.block -> Schedule.schedule) -> t

val transmogrifier_schedule : Cir.func -> Cir.block -> Schedule.schedule
(** One state per basic block, everything chained; register-file
    memories (same-cycle store/load). *)

val handelc_schedule : Cir.func -> Cir.block -> Schedule.schedule
(** A state ends after each committed assignment (mov/store): the
    structural view of "each assignment statement runs in one cycle". *)

val serial_schedule : Cir.func -> Cir.block -> Schedule.schedule
(** One instruction per state: the maximally serial baseline. *)
