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
    each item by the {!work} it reports.  A block's stack words are
    reclaimed when it closes, unless par branches are still running. *)

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
  mutable mem : Bitvec.t array;
  mutable sp : int;  (** next free stack word *)
  globals : (string, int * Ctypes.t) Hashtbl.t;
  mutable heap_next : int;  (** malloc bump pointer, above the stack *)
}

val heap_base : int
(** The stack lives in [0, heap_base); malloc carves from [heap_base, _).
    Disjointness means returning from a function never invalidates heap
    storage. *)

(** {1 Environments} *)

type scope = (string, int * Ctypes.t) Hashtbl.t

type env = {
  store : store;
  program : Ast.program;
  mutable scopes : scope list;
  mutable steps : int;
  fuel : int;
}

val eval_binop : env -> Ast.binop -> Ast.expr -> Ast.expr -> Bitvec.t
(** Scalar binary-operator semantics (pointer arithmetic included) on
    already-lowered operands.  The short-circuit operators are rewritten
    before this level.
    @raise Internal_error on [Log_and]/[Log_or], which must not reach the
    scalar evaluator. *)

(** {1 The thread machine}

    The entry function's body runs as threads of continuation items.
    [par] spawns one thread per branch and blocks its parent until all
    of them join; [send] and [recv] block until the earliest blocked
    sender and receiver on the channel pair up.  Calls inside
    expressions run big-step and must be sequential.  Every item and
    every statement of a big-step call counts one step against the
    machine's fuel, so both clocks share one step budget.

    A scope closes at the end of its block, or when [break]/[continue]
    unwinds past it.  If its thread is then the only unfinished one, the
    stack pointer returns to where it stood when the scope opened;
    otherwise (interleaved par branches) its words stay taken until an
    enclosing scope closes. *)

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
  fuel:int -> Ast.program -> entry:string -> args:Bitvec.t list -> machine
(** A fresh store holding the program's globals, the entry's frame
    holding [args], and the entry thread.  [fuel] bounds the steps.
    @raise Runtime_error on a missing entry or a wrong argument count. *)

val threads : machine -> thread list
(** The entry thread and every unfinished thread, in creation order.  A
    thread spawned during a round joins the list, not the round. *)

val runnable : thread -> bool
(** The thread has items left and is not blocked. *)

val finished : machine -> bool
(** The entry returned or ran out of items. *)

(** What an item did: the statement kinds a timed clock charges. *)
type work =
  | Control
      (** tests, scopes, loops, fork/join, return, break, continue, an
          expression statement that is not an assignment *)
  | Assigned of Ast.expr * Ast.expr
      (** [lhs = rhs]: an assignment statement whose rhs is not a
          receive, or a for-step that is an assignment *)
  | Stepped  (** a for-step that is not an assignment *)
  | Initialised of string
      (** a declaration whose initialiser is not a receive *)
  | Communicated  (** a send, or any of the three receive forms *)
  | Delayed  (** [delay]: a no-op for the untimed semantics *)

val exec_item : machine -> thread -> work
(** Run the next item of a {!runnable} thread and report it.
    @raise Timeout when the fuel runs out,
    @raise Runtime_error on semantic errors. *)

val pending_assignment : thread -> (Ast.expr * Ast.expr) option
(** The [(lhs, rhs)] that the thread's next item would report as
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
    @raise Timeout when [fuel] (default {!step_budget}) is exhausted. *)

val read_global : outcome -> string -> Bitvec.t
val read_global_array : outcome -> string -> Bitvec.t array

val run_int :
  ?fuel:int -> ?sched_seed:int -> string -> entry:string -> args:int list ->
  int
(** Parse, check, run; the entry function's result as an int. *)
