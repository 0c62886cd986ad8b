(** Bach C backend [Kambe et al. 2001] — also used for Cyber/BDL.

    "Untimed semantics: the compiler does the scheduling" — resource-
    constrained list scheduling with chaining; the cycle count of each
    construct falls out of the schedule, not a syntactic rule.  Programs
    using Bach C's explicit concurrency (par/rendezvous) run on the
    statement machine with the scheduled packing policy. *)

val compile : ?config:Config.t -> Ast.program -> entry:string -> Design.t
(** [config] carries the allocation, the pass options and the unroll
    factor. *)

val descriptor : Backend.descriptor

val cyber_descriptor : Backend.descriptor
(** Cyber/BDL rides the same scheduler (restricted C, no pointers or
    recursion): its own Table 1 row, dialect, [cyber] pipeline (whose
    concurrency check runs Cyber's rules) and registration. *)
