(** Transmogrifier C backend [Galloway 1995]: the implicit rule "only
    loop iterations and function calls take a cycle" — calls are inlined
    (block boundaries) and every basic block becomes one FSM state with
    everything chained, so the clock period grows with the longest block
    (the timing pathology of E3/E4). *)

val descriptor : Backend.descriptor
