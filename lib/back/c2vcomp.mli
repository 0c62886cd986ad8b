(** Compiled C2Verilog simulation.

    {!C2v_machine} interprets the stack code over boxed [Bitvec.t] words
    and allocates the whole unified memory on every run.  This engine
    decodes [C2verilog.compiled.code] once into flat int arrays and runs
    it over unboxed int words.  Its memory grows to the words a run
    touches, keeps the heap (from [heap_base] up) in its own segment, and
    between runs rewrites only the words the last run dirtied, so one
    engine serves many runs.

    Semantics are bit-identical to {!C2v_machine}: the same outcome, the
    same cycle counts, and the same [C2v_machine.Runtime_error] and
    [C2v_machine.Timeout] at the same point of a run.  {!C2v_machine}
    stays the differential oracle ([chlsc compile --sim event
    --verify-sim]).  The engine holds only a {!compilable} program, and
    runs only argument vectors {!words} accepts; {!Design} runs anything
    else on {!C2v_machine}. *)

val compilable : C2verilog.compiled -> bool
(** Can this program run on the int engine?  Requires every operator
    width in [1;62], every constant and initial memory word to fit an
    unboxed OCaml int, and the memory layout in order. *)

type t
(** One engine for one compiled program.  Mutable: one run at a time. *)

val create : C2verilog.compiled -> ret_width:int -> t
(** Decode the code.
    @raise Invalid_argument when the program is not {!compilable}. *)

type words
(** An argument vector the int engine can hold. *)

val words : Bitvec.t list -> words option
(** The vector as int words, or [None] when some argument's 64-bit
    pattern does not fit an unboxed OCaml int.  Arguments differ from run
    to run, so this is the one check a caller makes per run. *)

val execute : t -> words -> C2v_machine.outcome
(** Run the entry function, as {!C2v_machine.run} does under its default
    {!C2v_machine.max_cycles}.
    @raise C2v_machine.Runtime_error and C2v_machine.Timeout as
    {!C2v_machine.run} does. *)
