(** Modulo scheduling (software/hardware pipelining) — experiment E2.

    Extracts an innermost straight-line loop, computes the recurrence- and
    resource-constrained minimum initiation intervals, then runs iterative
    modulo scheduling.  Control flow inside the loop body makes the loop
    "irregular" and unpipelineable (without if-conversion), which is
    exactly the paper's claim about pipelining's limits. *)

type latency_model = { of_instr : Cir.instr -> int }

type dep_edge = {
  from_i : int;
  to_i : int;
  latency : int;
  distance : int;  (** 0 = same iteration, 1 = loop-carried *)
}

type loop_body = { instrs : Cir.instr array; edges : dep_edge list }

exception Irregular of string
(** The loop has internal control flow, returns, or does not exist. *)

type result = {
  ii : int;  (** achieved initiation interval *)
  rec_mii : int;
  res_mii : int;
  sequential_cycles : int;  (** one iteration without pipelining *)
  schedule_length : int;  (** depth of one iteration's schedule *)
  speedup : float;  (** asymptotic: sequential_cycles / ii *)
  fallback : bool;
      (** the II search diverged (II would exceed 4096) and the result is
          the unpipelined list schedule — [ii = sequential_cycles],
          [speedup = 1.0] *)
}

val ii_search_limit : int
(** Largest initiation interval the search will try (4096); a loop whose
    minimum II exceeds it is left unpipelined ([fallback = true]). *)

val fallback_count : unit -> int
(** How many {!modulo_schedule} calls have fallen back to list
    scheduling in this process; bench E2 prints it as
    [sched.modulo.fallbacks]. *)

val modulo_schedule : Cir.func -> result
(** Iterative modulo scheduling of the innermost loop under
    {!Schedule.default_allocation} and whole-cycle latencies (add and
    logic 1, multiply 3, divide 12, load 2, store 1, moves and casts 0),
    raising II from max(RecMII, ResMII) until a legal schedule exists.  When no
    legal II <= {!ii_search_limit} exists the loop is left unpipelined
    ([fallback = true]) rather than aborting the caller.
    @raise Irregular when the loop body branches internally. *)
