(** SystemC backend: schedule like Bach C ({!Fsmd_common.scheduled}) and
    return the FSMD as a {!Design.Process_network}.  It runs like every
    FSMD: on the design's compiled engine by default, and as a
    clock-edge-triggered process network on {!Sc_kernel} under
    [--sim event].  Concurrent programs run on the statement machine. *)

val descriptor : Backend.descriptor
