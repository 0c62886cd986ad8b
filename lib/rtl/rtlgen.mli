(** FSMD -> netlist elaboration: a binary-encoded state register, one
    datapath operator per scheduled instruction instance, per-register
    write muxes, and one RAM per region with a muxed write port.

    Protocol: virtual INIT (reset; loads parameter registers from input
    ports) and DONE (absorbing) states are appended; outputs are
    ["result"], ["done"] and one ["g_<name>"] per scalar global.  The
    elaborated design takes exactly one cycle more than the FSMD
    simulator (the INIT cycle). *)

exception Elaboration_error of string
(** Raised for designs the RAM model cannot express: two stores to one
    region in a state, or forwarding (register-file) memories. *)

type elaborated = {
  netlist : Netlist.t;
  done_state : int;
  init_state : int;
}

val elaborate : Fsmd.t -> elaborated

val simulate :
  ?strategy:Neteval.strategy -> elaborated ->
  args:Bitvec.t list -> func:Cir.func ->
  ((string * Bitvec.t) list * int * Neteval.stats, [ `Timeout ]) result
(** Run the elaborated netlist to completion, within
    {!Rtlsim.max_cycles}: (outputs, cycles, the evaluator's counters).
    The settling [strategy] defaults to [Neteval.Event_driven]; pass
    [Neteval.Full_sweep] to run the differential-testing oracle. *)
