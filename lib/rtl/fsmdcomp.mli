(** Compiled FSMD simulation.

    [Rtlsim] re-walks each state's instruction list every cycle,
    re-dispatching on constructors and re-boxing every register value.
    This module compiles the FSMD once: each state's actions become an
    array of specialized [unit -> unit] closures over unboxed [int]
    register files (parallel bits/width arrays, since Rtlsim registers
    carry dynamic widths), and each transition becomes a [unit -> int]
    closure.  A cycle is then a straight-line closure run — no
    instruction-list traversal, no Bitvec allocation — and the compiled
    engine is reusable: each {!execute} just blits the precomputed
    initial register/memory images back in, so compilation cost is paid
    once per design, not once per run.

    Semantics are bit-identical to {!Rtlsim} (same exceptions, same
    [outcome], same trace stream); the interpreter stays the
    differential oracle (see [chlsc compile --verify-sim]).  The engine
    holds only a {!compilable} FSMD; [Design] runs any other on
    {!Rtlsim}. *)

val compilable : Fsmd.t -> bool
(** Can this FSMD run on the compiled int engine?  Requires every
    register width, immediate width, memory word width and global
    initializer to fit an unboxed OCaml int ({!Intalu.width_limit}). *)

type t
(** A compiled simulation engine for one FSMD. *)

val create : Fsmd.t -> t
(** Compile the FSMD to per-state closure arrays.
    @raise Invalid_argument when the FSMD is not {!compilable}. *)

val execute :
  ?max_cycles:int -> ?trace:Rtlsim.trace -> t -> args:Bitvec.t list ->
  Rtlsim.outcome
(** Run the compiled engine.  Resets every register and memory cell to
    its initial image first, so repeated calls are independent.
    Tracing materializes the register file as [Bitvec.t]s once per
    cycle — only paid when a trace is attached.
    @raise Rtlsim.Timeout after [max_cycles] (default
    {!Rtlsim.max_cycles}).
    @raise Cir_interp.Runtime_error on argument-count mismatch. *)
