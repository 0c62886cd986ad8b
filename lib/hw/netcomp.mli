(** Compiled netlist simulation: pack once, then run a flat code array.

    [Neteval] interprets the netlist graph on every settle — each node
    evaluation re-dispatches on the node constructor and re-boxes its
    result.  This module compiles the netlist once into a packed code
    array: each combinational node becomes two ints (opcode, widths and
    operand ids; the node id is the destination), in id order, which is
    topological for combinational deps.  A settle runs that array over
    an unboxed [int] value array, registers are double-buffered across
    clock ticks, and cycles batch with no per-cycle graph walk.  An
    engine costs about three words per node, so a design can keep one
    alive for as long as it lives.  Probe hooks (VCD tracing) only pay
    when attached: an id-order change walk against a shadow array,
    allocated on the first {!set_probe}, reproduces [Neteval]'s
    committed-change stream exactly.

    The engine holds only a {!compilable} netlist: every signal and
    memory word must fit an unboxed OCaml int (width <= 62).  [Design]
    runs any other on the event-driven interpreter, which also remains
    the differential oracle for this engine (see
    [bench/simcomp_bench.ml] and [chlsc compile --verify-sim]). *)

val compilable : Netlist.t -> bool
(** Can this netlist run on the compiled int engine?  Requires all
    signal and memory-word widths in [1;62], width-matched binop
    operands and write ports, and every combinational dep to precede
    its user in id order. *)

type t

val create : Netlist.t -> t
(** Pack the netlist into its code array.
    @raise Invalid_argument when the netlist is not {!compilable}. *)

val reset : t -> unit
(** Rewind to power-on state — registers and memories reload their
    initial images, the cycle counter restarts — while keeping the
    compiled code, so one [create] can serve many runs.  Statistics
    other than [cycles] keep counting across resets. *)

val set_probe : t -> Neteval.probe -> unit
(** Observe committed value changes (id order within each settle), with
    the same change stream [Neteval] produces.  Attaching a probe
    enables the shadow-compare walk; unobserved runs skip it. *)

val settle : t -> inputs:(string * Bitvec.t) list -> unit
val value : t -> Netlist.signal -> Bitvec.t
val stats : t -> Neteval.stats

val drive :
  t -> inputs:(string * Bitvec.t) list -> done_name:string ->
  max_cycles:int ->
  ((string * Bitvec.t) list * int, [ `Timeout ]) result
(** Clock until the 1-bit output [done_name] is set; mirrors
    {!Neteval.drive}. *)
