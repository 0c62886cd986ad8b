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
    --verify-sim]).  A design whose operators are wider than 62 bits, or
    whose constants or initial memory words do not fit an unboxed int,
    falls back to {!C2v_machine} as a whole; so does a run whose
    arguments do not fit. *)

type t
(** One engine for one compiled program.  Mutable: one run at a time. *)

val create : C2verilog.compiled -> ret_width:int -> t
(** Decode the code (or, when not {!compilable}, wrap the oracle). *)

val compiled : t -> args:Bitvec.t list -> bool
(** [true] when {!execute} runs these arguments on the int engine rather
    than on {!C2v_machine}. *)

val execute : t -> args:Bitvec.t list -> C2v_machine.outcome
(** Run the entry function, as {!C2v_machine.run} does under its default
    {!C2v_machine.max_cycles}.
    @raise C2v_machine.Runtime_error and C2v_machine.Timeout as
    {!C2v_machine.run} does. *)
