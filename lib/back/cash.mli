(** CASH backend [Budiu & Goldstein 2002]: C -> SSA -> Pegasus-style
    asynchronous dataflow circuit, executed by the timed token simulator.
    No clock; performance is the dynamic critical path. *)

val compile :
  ?config:Config.t -> ?handshake:float -> Ast.program -> entry:string ->
  Design.t
(** [handshake] adjusts the per-token overhead of the default width-aware
    latency model — the knob ablations sweep. *)

val descriptor : Backend.descriptor
