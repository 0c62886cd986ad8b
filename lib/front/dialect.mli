(** The surveyed C-like hardware languages as dialects of one frontend.

    Reproduces the paper's Table 1: each dialect records chronology,
    provenance and the table's one-line characterisation, plus the feature
    axes the paper's Concurrency and Time sections use.  [check] enforces
    a dialect's published restrictions on a type-checked program. *)

type concurrency =
  | Sequential  (** compiler must find all parallelism *)
  | Process_level  (** HardwareC/SystemC/Ocapi-style processes *)
  | Statement_level  (** Handel-C/SpecC/Bach C [par] constructs *)

type timing =
  | Combinational  (** no clock at all: Cones *)
  | Asynchronous  (** no clock, handshaking: CASH *)
  | Implicit_rule of string  (** a fixed rule inserts cycle boundaries *)
  | Constraint_based  (** scheduled under timing constraints *)
  | Explicit_cycles of string  (** designer-visible cycle boundaries *)

type t = {
  name : string;
  citation : string;  (** bracketed reference number in the paper *)
  year : int;
  origin : string;
  characterisation : string;  (** the Table 1 one-liner *)
  concurrency : concurrency;
  timing : timing;
  allows_pointers : bool;
  allows_recursion : bool;
  allows_unbounded_loops : bool;
  allows_channels : bool;
  allows_par : bool;
  allows_constrain : bool;
  allows_delay : bool;
  backend : string;  (** chls backend implementing the scheme *)
}

val cones : t
val hardwarec : t
val transmogrifier : t
val systemc : t
val ocapi : t
val c2verilog : t
val cyber : t
val handelc : t
val specc : t
val bachc : t
val cash : t

val table1 : t list
(** All dialects in the paper's Table 1 row order. *)

val find : string -> t option
(** Case-insensitive lookup by language name. *)

val render_table1 : unit -> string
(** The paper's Table 1, regenerated from {!table1}; column widths are
    computed from the data, so no cell is truncated. *)

type violation = { rule : string; where : string; vloc : Ast.loc }
(** A broken dialect rule: [rule] names the restriction, [where] the
    enclosing function (or global), and [vloc] the first offending
    statement or expression ([Ast.no_loc] for program-level rules such
    as recursion). *)

val check : t -> Ast.program -> violation list
(** Check a type-checked program against a dialect's restrictions; an
    empty list means the program is legal in that language. *)
