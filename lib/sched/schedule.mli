(** Operation scheduling for behavioural synthesis: ASAP, ALAP, and
    resource-constrained list scheduling with operator chaining under a
    cycle-time budget.

    Contract with the FSMD backends: instructions placed in the same step
    keep their original order and see each other's results as wires;
    a load may not share a step with (or precede) a store it depends on,
    except under {!forwarding_asap}, whose register-file memories
    forward; WAR/WAW edges only require non-decreasing steps.  No
    resource bound can ask for forwarding: only a design whose memories
    forward may be scheduled that way. *)

type resource_class = Adder | Multiplier | Divider | Shifter | Logic | Mem

val class_of_instr : Cir.instr -> resource_class

type resources = {
  adders : int option;  (** [None] = unconstrained *)
  multipliers : int option;
  dividers : int option;
  shifters : int option;
  mem_read_ports : int;  (** per region, per step *)
  mem_write_ports : int;
  chain_budget : float;  (** max chained delay per step; [infinity] ok *)
}

val unconstrained : resources

val default_allocation : resources
(** A typical datapath: 2 adders, 1 multiplier, 1 divider, 1 shifter, one
    read and one write port per region, chain budget 20. *)

val capacity : resources -> resource_class -> int
(** Units of a class available per step (at least 1; [max_int] when
    unconstrained). *)

type schedule = {
  steps : int array;  (** control step of each instruction *)
  num_steps : int;
  step_delay : float array;  (** accumulated chained delay per step *)
}

val list_schedule : Cir.func -> resources -> Cir.instr list -> schedule
(** Priority list scheduling (longest path to a sink) of one basic block
    under [resources]. *)

val forwarding_asap : Cir.func -> Cir.instr list -> schedule
(** ASAP scheduling (no resource limits) over register-file memories: a
    load may share a step with a store it depends on, because the memory
    forwards the stored word within the step.  Only an FSMD built with [mem_forwarding] may run
    such a schedule (Transmogrifier C's). *)

val slack : Cir.func -> Cir.instr list -> int array
(** ALAP - ASAP step per instruction; zero-slack operations are on the
    critical path. *)

val ops_per_step : schedule -> int array
(** Parallelism profile: operations issued in each step. *)
