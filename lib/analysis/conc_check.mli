(** Static concurrency checker: par-block race detection and channel
    lint over the elaborated AST.

    The race detector computes may-read/may-write sets per [Ast.Par] arm
    (outer locals, globals, whole arrays, channel endpoints; conservative
    on pointer operations — a pointer access may alias every global and
    array, and every outer local that is an array or has its address
    taken) and
    reports write/write and read/write conflicts between sibling arms
    with source locations.  The channel lint matches rendezvous endpoints
    across arms: sends with no receiving sibling, receives with no
    sending sibling, channels shared by more than two arms, and arms that
    self-communicate with no possible partner.

    Severity is per dialect — hard error where the surveyed language
    forbids the shape (Handel-C: two writers; Bach C: any racing access
    under untimed semantics; both: an unmatched rendezvous that can never
    complete), warning where it is merely dangerous (SpecC's shared
    variables, the paper's silent hazard).

    The checker is registered in the concurrent backends' pipelines via
    {!pass} and surfaced by [chlsc check --races]. *)

type target =
  | Scalar of string
      (** a local (scalar or array) or parameter of the function enclosing
          the par: storage of its own, even where a global has its name *)
  | Global of string
  | Array of string  (** a global array, whole-region granularity *)
  | Pointer
      (** may alias any global or array, and an outer local that is an
          array or has its address taken *)

type access_kind = Read | Write

type access = { a_target : target; a_kind : access_kind; a_loc : Ast.loc }

type endpoint = Send | Recv

type chan_use = { c_chan : string; c_end : endpoint; c_loc : Ast.loc }

type kind =
  | Race_ww of target
  | Race_rw of target
  | Chan_unmatched_send of string
  | Chan_unmatched_recv of string
  | Chan_fan of string
  | Chan_self of string

type severity = Error | Warning

type diag = {
  d_kind : kind;
  d_severity : severity;
  d_loc : Ast.loc;
  d_other : Ast.loc option;  (** the conflicting sibling access *)
  d_msg : string;
}

exception Check_failed of diag list
(** Raised by {!pass} when the dialect makes any diagnostic a hard
    error. *)

val check_program : dialect:Dialect.t -> Ast.program -> diag list
(** All diagnostics for every [par] statement in the program (nested
    pars are checked independently).  The program must be type-checked
    (the analysis reads elaborated types). *)

val errors : diag list -> diag list
val warnings : diag list -> diag list

val severity_name : severity -> string

val render : ?file:string -> diag -> string
(** ["file:line:col: error: message (conflicts with line N)"]. *)

val metric_counters : diag list -> (string * int) list
(** Stable counter names (races.write_write, races.read_write,
    chan.unmatched_send, chan.unmatched_recv, chan.fan,
    chan.self_deadlock) with their counts, all keys always present. *)

val pass : Dialect.t -> Passes.program_pass
(** The checker as a declared source-level pass: reports warnings on
    stderr, raises {!Check_failed} on hard errors, and returns the
    program unchanged. *)
