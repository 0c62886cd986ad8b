(** Reference interpreter: the *software semantics* of the CHLS language,
    and the oracle every hardware backend is tested against.

    Deliberately untimed — the paper: time is absent from the C
    programming model; it guarantees causality but says nothing about
    execution time — so [steps] is a work measure, never clock cycles.
    Expressions evaluate big-step; statements run on a small-step thread
    machine so [par] branches interleave (round-robin) and rendezvous
    channels block; deadlock is detected.

    The whole thread machine is shared with the Handel-C clock
    ({!Handel_machine}): {!run} drives it with an untimed round robin,
    the clock drives the same threads in lockstep cycles and charges
    each item by the {!work} it reports.  Both run a {!resolved}
    program: names are looked up once per program, never per step.
    A block's stack words are free again when it closes; each par
    branch has a region of its own, so this holds in par branches too.
    The store is sized from the program and grows from a shared zero
    word, so no run makes OCaml 5 force a minor collection. *)

exception Runtime_error of string

exception Internal_error of string * Ast.loc
(** An invariant the front end was supposed to establish does not hold
    (e.g. a short-circuit operator surviving to the scalar binop
    evaluator).  Located so the CLI renders a [file:line:col] diagnostic
    instead of crashing on [assert false]. *)

exception Deadlock
exception Timeout

(** {1 The word-addressed store} *)

type store = {
  mutable mem : Bitvec.t array;  (** globals, then the stack: [0, sp) *)
  mutable sp : int;  (** next free stack word *)
  globals : (string, int * Ctypes.t) Hashtbl.t;
  mutable heap : Bitvec.t array;  (** the words [heap_base, heap_next) *)
  mutable heap_next : int;  (** malloc bump pointer *)
}

val scalar_binop :
  Ast.binop -> signed:bool -> Ast.loc -> Bitvec.t -> Bitvec.t -> Bitvec.t
(** Scalar binary-operator semantics on already-lowered operands, chosen
    once per operator occurrence.  Pointer arithmetic and the
    short-circuit operators have nodes of their own before this level.
    @raise Internal_error (at the given location) on [Log_and]/[Log_or],
    which must not reach the scalar evaluator. *)

(** {1 Resolving a program} *)

type resolved
(** A type-checked program with its names resolved, once: every variable
    a global address or a frame offset, every constant built, every
    block's thread-machine items pre-built, and each assignment's
    footprint for the Scheduled clock.  Nothing changes it after
    {!resolve}, so domains may share one. *)

val resolve : Ast.program -> resolved
(** Semantic errors stay runtime errors: a node that would fail (an
    undefined variable or function, a receive inside an expression)
    raises {!Runtime_error} only if a run evaluates it. *)

(** {1 The thread machine}

    The entry function's body runs as threads of continuation items.
    [par] spawns one thread per branch and blocks its parent until all
    of them join; [send] and [recv] block until the earliest blocked
    sender and receiver on the channel pair up.  Calls inside
    expressions run big-step and must be sequential.  Every item and
    every statement of a big-step call counts one step against the
    machine's fuel, so both clocks share one step budget.

    Every function has a static frame: each local has a slot, and a
    block's words begin where its enclosing block's declarations so far
    end.  A block closes at its end, or when [break]/[continue] unwinds
    past it, and its words are free again.  Each par branch has its own
    region of the frame, held while the par runs, so a branch that
    closes a block frees its words whatever the other branches do.  The
    stack pointer follows the entry thread's declarations and block
    ends: a pointer to a closed block's local faults.  One thread's
    stack holds at most 65,536 words. *)

type thread
type machine

type outcome = {
  return_value : Bitvec.t option;
  steps : int;  (** statement steps executed: the untimed work metric *)
  final_store : store;
}

val step_budget : int
(** 10M: the steps {!run} allows by default, and the Handel-C clock
    always. *)

val start :
  fuel:int -> resolved -> entry:string -> args:Bitvec.t list -> machine
(** A fresh store holding the program's globals, the entry's frame
    holding [args], and the entry thread.  The store starts large enough
    for the globals and the deepest static chain of frames from the
    entry, and grows on demand.  [fuel] bounds the steps.
    @raise Runtime_error on a missing entry or a wrong argument count. *)

val threads : machine -> thread list
(** The entry thread and every unfinished thread, in creation order.  A
    thread spawned during a round joins the list, not the round. *)

val runnable : thread -> bool
(** The thread has items left and is not blocked. *)

val finished : machine -> bool
(** The entry returned or ran out of items. *)

(** What an assignment names, each variable interned to one int per
    program: the Scheduled clock's same-cycle conflict test, computed
    once by {!resolve}. *)
type footprint = {
  reads : int array;  (** every variable the rhs and the lhs name *)
  target : int;  (** the variable the lhs is, or -1 *)
  rhs_regions : int array;  (** the arrays the rhs indexes by name *)
  target_region : int;  (** the array the lhs indexes by name, or -1 *)
}

(** What an item did: the statement kinds a timed clock charges. *)
type work =
  | Control
      (** tests, scopes, loops, fork/join, return, break, continue, an
          expression statement that is not an assignment *)
  | Assigned of footprint
      (** [lhs = rhs]: an assignment statement whose rhs is not a
          receive, or a for-step that is an assignment *)
  | Stepped  (** a for-step that is not an assignment *)
  | Initialised of int
      (** a declaration whose initialiser is not a receive: its
          variable, interned as in {!footprint} *)
  | Communicated  (** a send, or any of the three receive forms *)
  | Delayed  (** [delay]: a no-op for the untimed semantics *)

val exec_item : machine -> thread -> work
(** Run the next item of a {!runnable} thread and report it.
    @raise Timeout when the fuel runs out,
    @raise Runtime_error on semantic errors. *)

val pending_assignment : thread -> footprint option
(** The footprint that the thread's next item would report as
    [Assigned], without running it. *)

val outcome : machine -> outcome

(** {1 Running programs} *)

val run :
  ?fuel:int -> ?sched_seed:int -> Ast.program -> entry:string ->
  args:Bitvec.t list -> outcome
(** Run [entry] on a type-checked program: each round runs one item of
    every runnable thread, in creation order.  [sched_seed] perturbs the
    round-robin thread *visit* order with a deterministic per-round
    shuffle (rendezvous pairing is unaffected): programs the static
    concurrency checker calls race-free must return identical observables
    under every seed, while racy programs may diverge — the dynamic
    cross-check of {!Conc_check}.
    @raise Runtime_error on semantic errors (wild pointers, out-of-bounds
    accesses, undefined functions),
    @raise Deadlock when no thread can make progress,
    @raise Timeout when [fuel] (default {!step_budget}) is exhausted.
    Resolves the program on every call; see {!run_resolved}. *)

val run_resolved :
  ?fuel:int -> ?sched_seed:int -> resolved -> entry:string ->
  args:Bitvec.t list -> outcome
(** {!run} on a program resolved once, for callers that run it again. *)

val read_global : outcome -> string -> Bitvec.t
val read_global_array : outcome -> string -> Bitvec.t array

val run_int :
  ?fuel:int -> ?sched_seed:int -> string -> entry:string -> args:int list ->
  int
(** Parse, check, run; the entry function's result as an int. *)
